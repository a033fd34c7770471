"""Self-test of the benchmark and its instrumentation.

    python3 -m pytest perfbench -q      # from the checkout root, about 2 minutes

One traced run of every workload must report each per-layer metric as
non-zero on the workloads whose layers do that work (the map in README.md),
no adaptive call at all on train_vanilla, and byte-identical artefacts
from the traced and the untraced job, which shows that the wrappers
perturb no RNG stream or output.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TRAINING = (
    "config.load_config", "data.make_synthetic", "experiment.build_dataset",
    "experiment.build_parties", "experiment.run_training", "protocol.train",
    "protocol.run_round", "protocol.evaluate", "protocol.PassiveParty.compute_release",
    "protocol.PassiveParty.receive_and_update", "protocol.ActiveParty.aggregate_and_step",
    "mechanism.clip_norm", "mechanism.add_noise", "mechanism.clip_norm_vjp",
    "neural.DenseNet.forward", "neural.DenseNet.backward", "neural.DenseNet.copy",
    "neural.sgd_step", "numerics.Rng.split", "runs.EventLog.on_round",
    "runs.write_epochs_csv", "runs.save_checkpoints",
)
ADJUSTING = (
    "adaptive.estimate_local_sensitivity", "adaptive.rescale", "adaptive.kl_surrogate_loss",
    "adaptive.fcm", "adaptive.contrastive_loss", "numerics.pairwise_distances",
)
ATTACKING = (
    "experiment.VflVictim.release_embeddings", "experiment.VflVictim.predict_proba",
    "experiment.shadow_train", "attacks.inversion_attack", "attacks.membership_inference",
    "runs.load_run",
)
TRAINING_DERIVED = (
    "protocol.compute_release.eval_share", "protocol.channel.logged_mb",
    "buckets.base_pct", "buckets.noise_pct", "buckets.evaluate_pct",
    "bench.cpu_s", "bench.span_coverage_pct",
)
ADJUSTING_DERIVED = (
    "adaptive.estimate_local_sensitivity.eval_share", "adaptive.fcm.useful_ratio",
    "buckets.rescale_pct", "buckets.dist_adjust_pct",
)

# Spans and derived metrics that must be non-zero, by workload.
ACTIVE = {
    "train_full": (TRAINING + ADJUSTING, TRAINING_DERIVED + ADJUSTING_DERIVED),
    "train_vanilla": (TRAINING, TRAINING_DERIVED),
    "attack_seed": (TRAINING + ADJUSTING + ATTACKING,
                    TRAINING_DERIVED + ADJUSTING_DERIVED + ("attacks.inversion.mse_ratio",)),
}
# Spans that must see no call at all, by workload.
IDLE = {
    "train_full": ATTACKING,
    "train_vanilla": ADJUSTING + ATTACKING,
    "attack_seed": (),
}


@pytest.fixture(scope="module")
def traced():
    """One traced run per workload: (final JSON line, saved result.json)."""
    results = {}
    for workload in ACTIVE:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=200,
        )
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        saved = json.loads(
            (ROOT / ".bench_out" / f"{workload}-seed1-trace1" / "result.json").read_text())
        results[workload] = (line, saved)
    return results


@pytest.mark.parametrize("workload", sorted(ACTIVE))
def test_layers_active_where_they_work(traced, workload):
    line, saved = traced[workload]
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    assert list(metrics) == list(tracing.metric_units())
    spans, derived = ACTIVE[workload]
    for name in spans:
        assert metrics[f"{name}.calls"] > 0, name
        assert metrics[f"{name}.self_s"] > 0, name
        if name in tracing.PARENTS:
            assert metrics[f"{name}.busy_s"] >= metrics[f"{name}.self_s"], name
    for name in derived:
        assert metrics[name] > 0, name
    for name in IDLE[workload]:
        assert metrics[f"{name}.calls"] == 0, name
    assert saved["missing_sites"] == []


def test_no_adaptive_call_on_train_vanilla(traced):
    line, _ = traced["train_vanilla"]
    adaptive = [name for name in line["metrics"]
                if name.startswith("adaptive.") and name.endswith(".calls")]
    assert len(adaptive) == 5
    assert all(line["metrics"][name]["value"] == 0 for name in adaptive)


@pytest.mark.parametrize("workload", sorted(ACTIVE))
def test_tracing_leaves_outputs_unchanged(traced, workload):
    line, saved = traced[workload]
    untraced, traced_job = saved["jobs"]
    assert traced_job["digests"] == untraced["digests"]
    assert all(None not in d.values() for d in untraced["digests"])
    assert line["correct"] and line["failed"] == 0


def test_span_accounting():
    """Self time excludes children; busy time counts a recursive call once."""
    tracer = tracing.Tracer(confidence_threshold=0.8)
    evaluate = tracing.NAMES.index("protocol.evaluate")
    forward = tracing.NAMES.index("neural.DenseNet.forward")
    # evaluate [0, 10] > evaluate [1, 9] > forward [2, 5]; forward [11, 12].
    for name_id, parent, start, end in ((evaluate, -1, 0, 10), (evaluate, 0, 1, 9),
                                        (forward, 1, 2, 5), (forward, -1, 11, 12)):
        tracer.name_ids.append(name_id)
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)
    out = tracer.metrics(wall_s=20.0)
    assert out["protocol.evaluate.calls"] == 2
    assert out["protocol.evaluate.self_s"] == pytest.approx(2.0 + 5.0)
    assert out["protocol.evaluate.busy_s"] == pytest.approx(10.0)
    assert out["neural.DenseNet.forward.self_s"] == pytest.approx(4.0)
    assert out["buckets.evaluate_pct"] == pytest.approx(50.0)
    assert out["bench.span_coverage_pct"] == pytest.approx(55.0)
    assert sum(out[f"buckets.{b}_pct"] for b in tracing.BUCKET_NAMES) == pytest.approx(100.0)


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["train_full", "attack_seed"]
    assert all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] < setup["bound"] for m in spec["end_to_end"] if m is not setup)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
