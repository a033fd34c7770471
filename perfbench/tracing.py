"""Span recorder for the traced benchmark run, and its per-layer metrics.

Every listed layer function is wrapped where dpvfl looks it up, never only
where it is defined. dpvfl binds names with ``from .x import y``, so
``fcm`` is called through ``dpvfl.protocol.fcm`` and a wrapper placed on
``dpvfl.adaptive.fcm`` would see no calls. Methods are looked up through
their class, so they are wrapped on the class.

Spans are kept in flat in-memory arrays (name id, parent index, start,
end) and written out once the run ends. Nothing here changes an argument,
a return value or an RNG stream of the wrapped code.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# (span name, lookup sites as (module, attribute or Class.method)).
LAYERS = (
    ("config.load_config", (("dpvfl.cli", "load_config"), ("dpvfl.runs", "load_config"))),
    ("data.make_synthetic", (("dpvfl.experiment", "make_synthetic"),)),
    ("experiment.build_dataset", (("dpvfl.experiment", "build_dataset"),
                                  ("dpvfl.runs", "build_dataset"))),
    ("experiment.build_parties", (("dpvfl.experiment", "build_parties"),
                                  ("dpvfl.runs", "build_parties"))),
    ("experiment.run_training", (("dpvfl.cli", "run_training"),)),
    ("experiment.VflVictim.release_embeddings",
     (("dpvfl.experiment", "VflVictim.release_embeddings"),)),
    ("experiment.VflVictim.predict_proba", (("dpvfl.experiment", "VflVictim.predict_proba"),)),
    ("protocol.train", (("dpvfl.experiment", "train"),)),
    ("protocol.run_round", (("dpvfl.protocol", "run_round"),)),
    ("protocol.evaluate", (("dpvfl.protocol", "evaluate"),)),
    ("protocol.PassiveParty.compute_release", (("dpvfl.protocol", "PassiveParty.compute_release"),)),
    ("protocol.PassiveParty.receive_and_update",
     (("dpvfl.protocol", "PassiveParty.receive_and_update"),)),
    ("protocol.ActiveParty.aggregate_and_step",
     (("dpvfl.protocol", "ActiveParty.aggregate_and_step"),)),
    ("adaptive.estimate_local_sensitivity", (("dpvfl.protocol", "estimate_local_sensitivity"),)),
    ("adaptive.rescale", (("dpvfl.protocol", "rescale"),)),
    ("adaptive.kl_surrogate_loss", (("dpvfl.protocol", "kl_surrogate_loss"),)),
    ("adaptive.fcm", (("dpvfl.protocol", "fcm"),)),
    ("adaptive.contrastive_loss", (("dpvfl.protocol", "contrastive_loss"),)),
    ("mechanism.clip_norm", (("dpvfl.protocol", "clip_norm"),)),
    ("mechanism.add_noise", (("dpvfl.protocol", "add_noise"),)),
    ("mechanism.clip_norm_vjp", (("dpvfl.protocol", "clip_norm_vjp"),)),
    ("neural.DenseNet.forward", (("dpvfl.neural", "DenseNet.forward"),)),
    ("neural.DenseNet.backward", (("dpvfl.neural", "DenseNet.backward"),)),
    ("neural.DenseNet.copy", (("dpvfl.neural", "DenseNet.copy"),)),
    ("neural.sgd_step", (("dpvfl.protocol", "sgd_step"), ("dpvfl.attacks", "sgd_step"))),
    ("numerics.pairwise_distances", (("dpvfl.adaptive", "pairwise_distances"),
                                     ("dpvfl.protocol", "pairwise_distances"))),
    ("numerics.Rng.split", (("dpvfl.numerics", "Rng.split"),)),
    # run_attack_suite imports these from dpvfl.attacks at call time.
    ("attacks.inversion_attack", (("dpvfl.attacks", "inversion_attack"),)),
    ("attacks.membership_inference", (("dpvfl.attacks", "membership_inference"),)),
    ("runs.EventLog.on_round", (("dpvfl.runs", "EventLog.on_round"),)),
    ("runs.write_epochs_csv", (("dpvfl.runs", "write_epochs_csv"),)),
    ("runs.save_checkpoints", (("dpvfl.runs", "save_checkpoints"),)),
    ("runs.load_run", (("dpvfl.runs", "load_run"),)),
)
NAMES = tuple(name for name, _ in LAYERS)

# Spans that can enclose another listed span; they also report busy_s.
PARENTS = (
    "data.make_synthetic",
    "experiment.build_dataset",
    "experiment.build_parties",
    "experiment.run_training",
    "experiment.VflVictim.release_embeddings",
    "experiment.VflVictim.predict_proba",
    "experiment.shadow_train",
    "protocol.train",
    "protocol.run_round",
    "protocol.evaluate",
    "protocol.PassiveParty.compute_release",
    "protocol.PassiveParty.receive_and_update",
    "protocol.ActiveParty.aggregate_and_step",
    "adaptive.estimate_local_sensitivity",
    "attacks.inversion_attack",
    "attacks.membership_inference",
    "runs.load_run",
)

# experiment.shadow_train is the protocol.train spans under membership_inference.
_TRAIN = NAMES.index("protocol.train")
SPAN_METRICS = NAMES[:_TRAIN] + ("experiment.shadow_train",) + NAMES[_TRAIN:]

# Releases made for evaluation or attacker queries rather than for a round.
EVAL_PARENTS = ("protocol.evaluate", "experiment.VflVictim.release_embeddings")

# StageTimer's four buckets; each bucket's spans are counted inside run_round.
BUCKETS = (
    ("rescale", ("adaptive.estimate_local_sensitivity", "adaptive.rescale",
                 "adaptive.kl_surrogate_loss")),
    ("dist_adjust", ("adaptive.fcm", "adaptive.contrastive_loss")),
    ("noise", ("mechanism.add_noise",)),
)
BUCKET_NAMES = ("base", "noise", "rescale", "dist_adjust", "evaluate", "other")

DERIVED = (
    ("protocol.compute_release.eval_share", "fraction"),
    ("protocol.channel.logged_mb", "MB"),
    ("adaptive.estimate_local_sensitivity.eval_share", "fraction"),
    ("adaptive.fcm.useful_ratio", "fraction"),
    ("attacks.inversion.failed_trials", "count"),
    ("attacks.inversion.mse_ratio", "ratio"),
    ("attacks.membership_inference.gap", "fraction"),
)
BENCH = (
    ("bench.cpu_s", "s"),
    ("bench.tracing_overhead_pct", "%"),
    ("bench.span_coverage_pct", "%"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for name in SPAN_METRICS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in PARENTS:
            units[f"{name}.busy_s"] = "s"
    units.update(DERIVED)
    for bucket in BUCKET_NAMES:
        units[f"buckets.{bucket}_pct"] = "%"
    units.update(BENCH)
    return units


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Tracer:
    """Records one span per call of each wrapped layer function."""

    def __init__(self, confidence_threshold: float):
        self.confidence_threshold = confidence_threshold
        self.name_ids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.job_starts: list[int] = []
        self.missing: list[str] = []
        self.fcm_useful = 0
        self.inversion_failed = 0
        self.logged_bytes_max = 0
        self._stack: list[int] = []
        self._channels: list = []

    def install(self) -> None:
        """Wrap every lookup site in ``LAYERS``; unknown sites are noted, not fatal."""
        after = {
            "adaptive.fcm": self._after_fcm,
            "attacks.inversion_attack": self._after_inversion,
            "protocol.train": self._after_train,
        }
        for name_id, (name, sites) in enumerate(LAYERS):
            for module, attr in sites:
                try:
                    owner, key = _resolve(module, attr)
                    original = getattr(owner, key)
                except (ImportError, AttributeError):
                    self.missing.append(f"{module}.{attr}")
                    continue
                setattr(owner, key, self._wrap(name_id, original, after.get(name)))
        from dpvfl.protocol import MessageChannel

        original_init = MessageChannel.__init__
        channels = self._channels

        def init(channel, *args, **kwargs):
            original_init(channel, *args, **kwargs)
            channels.append(channel)

        MessageChannel.__init__ = init

    def begin_job(self) -> None:
        self.job_starts.append(len(self.starts))

    def _wrap(self, name_id: int, fn, after):
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _after_fcm(self, result) -> None:
        assignment, _ = result
        if np.count_nonzero(assignment.confidences >= self.confidence_threshold) >= 2:
            self.fcm_useful += 1

    def _after_inversion(self, report) -> None:
        self.inversion_failed += report.failed_trials

    def _after_train(self, _history) -> None:
        for channel in self._channels:
            logged = sum(
                value.nbytes
                for message in channel.log
                for value in vars(message).values()
                if isinstance(value, np.ndarray)
            )
            self.logged_bytes_max = max(self.logged_bytes_max, logged)
        self._channels.clear()

    def save(self, path, run_id: str) -> None:
        """Write the spans as arrays: name, parent index, start, end, job."""
        count = len(self.starts)
        bounds = self.job_starts + [count]
        job = np.repeat(np.arange(len(self.job_starts)), np.diff(bounds))
        np.savez_compressed(
            path,
            run_id=np.array(run_id),
            names=np.array(NAMES),
            name_id=np.frombuffer(self.name_ids, dtype=np.uint16),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            job=job,
        )

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of every recorded span, over ``wall_s`` traced seconds."""
        name_id = np.frombuffer(self.name_ids, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parents, dtype=np.int64)
        duration = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(
            self.starts, dtype=np.float64)
        count = duration.size
        ids = {name: i for i, name in enumerate(NAMES)}

        child = parent >= 0
        children_s = np.zeros(count)
        np.add.at(children_s, parent[child], duration[child])
        self_s = duration - children_s

        def under(names) -> np.ndarray:
            return _below(np.isin(name_id, [ids[n] for n in names]), parent)

        under_eval = under(EVAL_PARENTS)
        under_mi = under(("attacks.membership_inference",))
        under_round = under(("protocol.run_round",))

        out: dict[str, float] = {}

        def record(name: str, mask: np.ndarray) -> None:
            out[f"{name}.calls"] = float(np.count_nonzero(mask))
            out[f"{name}.self_s"] = float(self_s[mask].sum())
            if name in PARENTS:
                out[f"{name}.busy_s"] = _busy(mask, parent, duration)

        for name in SPAN_METRICS:
            if name == "experiment.shadow_train":
                record(name, (name_id == ids["protocol.train"]) & under_mi)
            else:
                record(name, name_id == ids[name])

        def eval_share(name: str) -> float:
            mask = name_id == ids[name]
            total = np.count_nonzero(mask)
            return float(np.count_nonzero(mask & under_eval)) / total if total else 0.0

        fcm_calls = out["adaptive.fcm.calls"]
        out["protocol.compute_release.eval_share"] = eval_share("protocol.PassiveParty.compute_release")
        out["protocol.channel.logged_mb"] = self.logged_bytes_max / 2**20
        out["adaptive.estimate_local_sensitivity.eval_share"] = eval_share(
            "adaptive.estimate_local_sensitivity")
        out["adaptive.fcm.useful_ratio"] = self.fcm_useful / fcm_calls if fcm_calls else 0.0
        out["attacks.inversion.failed_trials"] = float(self.inversion_failed)

        seconds = {}
        for bucket, names in BUCKETS:
            mask = np.isin(name_id, [ids[n] for n in names]) & under_round
            seconds[bucket] = _busy(mask, parent, duration)
        round_s = out["protocol.run_round.busy_s"]
        seconds["base"] = round_s - sum(seconds.values())
        seconds["evaluate"] = out["protocol.evaluate.busy_s"]
        seconds["other"] = wall_s - sum(seconds.values())
        for bucket in BUCKET_NAMES:
            out[f"buckets.{bucket}_pct"] = 100.0 * seconds[bucket] / wall_s
        out["bench.span_coverage_pct"] = 100.0 * float(self_s.sum()) / wall_s
        return out


def _below(mask: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Spans with a masked ancestor, by pointer doubling up the parent links."""
    n = parent.size
    jump = np.append(np.where(parent >= 0, parent, n), n)
    flag = np.append(mask, False)[jump]
    while np.any(jump != n):
        flag = flag | flag[jump]
        jump = jump[jump]
    return flag[:n]


def _busy(mask: np.ndarray, parent: np.ndarray, duration: np.ndarray) -> float:
    """Total duration of the masked spans, not counting one nested in another."""
    return float(duration[mask & ~_below(mask, parent)].sum())
