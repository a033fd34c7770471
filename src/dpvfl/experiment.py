"""Glue between configs and the protocol: dataset/party builders, training
runs, and victim access wrappers for the attack harness."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig
from .data import (
    DatasetSplits,
    column_sets,
    encode_csv_dataset,
    load_csv,
    load_idx,
    make_synthetic,
    partition_splits,
    split_table,
)
from .errors import ConfigError
from .mechanism import PrivacyParams
from .neural import DenseNet, softmax
from .numerics import Rng
from .protocol import (
    ActiveParty,
    Parties,
    PassiveParty,
    StageTimer,
    TrainingHistory,
    train,
)


def build_dataset(cfg: ExperimentConfig) -> DatasetSplits:
    """Materialize the configured dataset, deterministically from the seed."""
    ds = cfg.dataset
    if ds.kind == "synthetic":
        train_table, test_table = make_synthetic(ds, cfg.seed)
    elif ds.kind == "csv":
        columns = load_csv(ds.path, ds.columns)
        train_table, test_table = encode_csv_dataset(columns, ds.columns, ds.test_fraction,
                                                     cfg.seed)
        train_table = train_table.head(ds.limit)
    else:  # idx; DatasetConfig refuses any other kind
        table = load_idx(ds.images, ds.labels).head(ds.limit)
        train_table, test_table = split_table(table, ds.test_fraction, cfg.seed)
    return partition_splits(train_table, test_table, column_sets(ds, train_table))


def build_parties(cfg: ExperimentConfig, data: DatasetSplits) -> Parties:
    """Seeded extractors/head plus per-party privacy and adaptive settings.

    The head takes the embeddings concatenated in ascending party id order,
    so its input width is the sum of the per-party embedding dims.
    """
    root = Rng(cfg.seed)
    p = cfg.privacy
    privacy = PrivacyParams.from_budget(
        p.epsilon, p.delta, p.clip_threshold, allow_large_epsilon=p.allow_large_epsilon,
    ) if p.enabled else None
    passives = []
    for pid in range(data.train.n_parties):
        dims = (
            [data.train.party_features[pid].shape[1]]
            + list(cfg.model.extractor_hidden)
            + [cfg.model.embedding_dim]
        )
        activations = [cfg.model.activation] * (len(dims) - 1)
        extractor = DenseNet.create(dims, activations, root.split("init", pid))
        passives.append(PassiveParty(
            party_id=pid,
            features=data.train.party_features[pid],
            extractor=extractor,
            config=cfg.training,
            privacy=privacy,
            adaptive=cfg.adaptive,
            n_clusters=data.train.n_classes,
            rng=root,
            sigma_override=p.sigma_override if privacy is not None else None,
        ))
    head_dims = (
        [cfg.model.embedding_dim * data.train.n_parties]
        + list(cfg.model.head_hidden)
        + [data.train.n_classes]
    )
    head_acts = [cfg.model.activation] * (len(head_dims) - 2) + ["identity"]
    head = DenseNet.create(head_dims, head_acts, root.split("init", data.train.n_parties))
    active = ActiveParty(head=head, labels=data.train.labels, config=cfg.training)
    return Parties(passives=tuple(passives), active=active)


@dataclass
class RunResult:
    config: ExperimentConfig
    data: DatasetSplits
    parties: Parties
    history: TrainingHistory


def run_training(cfg: ExperimentConfig, on_round=None) -> RunResult:
    """Build everything from the config and run the full training loop."""
    data = build_dataset(cfg)
    parties = build_parties(cfg, data)
    history = train(
        parties, data, Rng(cfg.seed),
        eval_repeats=cfg.evaluation.repeats,
        on_round=on_round,
    )
    return RunResult(config=cfg, data=data, parties=parties, history=history)


def measure_stage_times(cfg: ExperimentConfig) -> dict[str, float]:
    """Wall-time per pipeline stage over a fixed budget of rounds.

    Returns seconds for the four accounted stages, in the order base,
    noise, rescale, dist_adjust; disabled stages report 0.0.
    """
    from .protocol import MessageChannel, run_round, sample_aligned_batch

    timer = StageTimer()
    data = build_dataset(cfg)
    batch_size = cfg.timing.batch_size or cfg.training.batch_size
    if batch_size > data.train.n_rows:
        raise ConfigError("timing batch size exceeds the training rows")
    timed = replace(cfg, training=replace(cfg.training, batch_size=batch_size))
    parties = build_parties(timed, data)
    rng = Rng(cfg.seed).split("timing")
    channel = MessageChannel()
    for round_index in range(cfg.timing.rounds):
        indices = sample_aligned_batch(data.train.n_rows, batch_size, rng)
        run_round(parties, indices, round_index, channel, timer=timer)
    return dict(timer.seconds)


class VflVictim:
    """Released-artifact access to a trained run, as an attacker sees it.

    ``release_embeddings`` returns what the target passive party would put
    on the wire for given raw features; ``predict_proba`` runs the full
    deployed inference pipeline to final softmax confidences.
    """

    def __init__(self, parties: Parties):
        self.parties = parties

    def release_embeddings(self, party_id: int, x: np.ndarray, rng: Rng) -> np.ndarray:
        return self._party(party_id).compute_release(x, rng).released

    def predict_proba(self, xs_by_party: list[np.ndarray], rng: Rng) -> np.ndarray:
        released = []
        for party, x in zip(self.parties.passives, xs_by_party):
            released.append(self.release_embeddings(party.party_id, x, rng.split(party.party_id)))
        head = self.parties.active.head.copy()
        return softmax(head.forward(np.hstack(released)))

    def extractor_dims(self, party_id: int) -> list[int]:
        return self._party(party_id).extractor.dims

    def _party(self, party_id: int) -> PassiveParty:
        for party in self.parties.passives:
            if party.party_id == party_id:
                return party
        raise ConfigError(f"victim has no passive party {party_id}")


# ---------------------------------------------------------------------------
# Attack-suite orchestration
# ---------------------------------------------------------------------------

def _balanced_eval_rows(data: DatasetSplits, per_side: int, rng: Rng):
    per = min(per_side, data.train.n_rows, data.test.n_rows)
    members = rng.choice(data.train.n_rows, per, replace=False)
    nonmembers = rng.choice(data.test.n_rows, per, replace=False)
    return np.sort(members), np.sort(nonmembers)


def _party_inputs(split, rows) -> list[np.ndarray]:
    return [split.party_features[p][rows] for p in range(split.n_parties)]


def _carve_rows(n_rows: int, pieces: int, rng: Rng) -> list[np.ndarray]:
    order = rng.permutation(n_rows)
    return [np.sort(chunk) for chunk in np.array_split(order, pieces)]


def _shadow_run(cfg: ExperimentConfig, shadow_index: int, victim_data: DatasetSplits,
                carve: list[np.ndarray] | None) -> tuple[VflVictim, DatasetSplits]:
    """Train one shadow model on data disjoint from the victim's.

    Synthetic datasets draw fresh seeded samples from the same generative
    spec; file-backed datasets get a pair of disjoint chunks carved out of
    the held-out split (all that exists at desk scale).
    """
    shadow_seed = (cfg.seed * 1_000_003 + 7919 * (shadow_index + 1)) % 2**63
    epochs = cfg.attack.shadow_epochs or cfg.training.epochs
    shadow_cfg = replace(
        cfg,
        seed=shadow_seed,
        training=replace(cfg.training, epochs=epochs),
    )
    if carve is None:
        data = build_dataset(shadow_cfg)
    else:
        data = DatasetSplits(
            train=victim_data.test.take(carve[2 * shadow_index]),
            test=victim_data.test.take(carve[2 * shadow_index + 1]),
        )
        max_batch = max(2, data.train.n_rows // 2)
        if shadow_cfg.training.batch_size > max_batch:
            shadow_cfg = replace(
                shadow_cfg, training=replace(shadow_cfg.training, batch_size=max_batch)
            )
    parties = build_parties(shadow_cfg, data)
    # No caller reads a shadow's per-epoch test accuracy.
    train(parties, data, Rng(shadow_seed), evaluate_each_epoch=False)
    return VflVictim(parties), data


def run_attack_suite(cfg: ExperimentConfig, victims: dict[str, RunResult],
                     seed: int | None = None) -> list:
    """Run inversion + membership inference against every victim.

    ``victims`` maps a configuration tag (e.g. unprotected / vanilla / full)
    to its loaded run. Attack settings come from ``cfg.attack``; the victim
    datasets are rebuilt from each victim's own resolved config.
    """
    from .attacks import inversion_attack, membership_inference

    seed = cfg.seed if seed is None else seed
    atk = cfg.attack
    reports = []
    for tag, run in sorted(victims.items()):
        rng = Rng(seed).split("attack", tag)
        victim = VflVictim(run.parties)
        data = run.data
        target = atk.target_party

        # The attacker holds samples from the victim's data distribution,
        # disjoint from the victim's own rows: fresh seeded draws for
        # synthetic data, the held-out split otherwise.
        if run.config.dataset.kind == "synthetic":
            attacker_seed = (seed * 2_000_003 + 104_729) % 2**63
            attacker_data = build_dataset(replace(run.config, seed=attacker_seed))
            attacker_pool = np.vstack([
                attacker_data.train.party_features[target],
                attacker_data.test.party_features[target],
            ])
        else:
            attacker_pool = data.test.party_features[target]
        holdout_rows = rng.split("holdout").choice(
            data.train.n_rows, min(atk.eval_per_side * 2, data.train.n_rows),
            replace=False,
        )
        holdout = data.train.party_features[target][np.sort(holdout_rows)]
        inversion = inversion_attack(
            lambda x, r: victim.release_embeddings(target, x, r),
            victim.extractor_dims(target),
            attacker_pool,
            holdout,
            atk,
            rng.split("inversion"),
            victim_tag=tag,
        )
        reports.append(inversion)

        member_rows, nonmember_rows = _balanced_eval_rows(
            data, atk.eval_per_side, rng.split("eval-rows")
        )

        def conf_fn_for(v: VflVictim):
            if atk.level == "embedding":
                return lambda inputs, r: v.release_embeddings(target, inputs[target], r)
            return lambda inputs, r: v.predict_proba(inputs, r)

        carve = None
        if run.config.dataset.kind != "synthetic":
            carve = _carve_rows(data.test.n_rows, 2 * atk.shadows, rng.split("carve"))

        def shadow_factory(i, shadow_rng):
            shadow, shadow_data = _shadow_run(run.config, i, data, carve)
            in_rows, out_rows = _balanced_eval_rows(
                shadow_data, atk.eval_per_side, shadow_rng.split("rows")
            )
            return (
                conf_fn_for(shadow),
                _party_inputs(shadow_data.train, in_rows),
                _party_inputs(shadow_data.test, out_rows),
            )

        mi = membership_inference(
            conf_fn_for(victim),
            _party_inputs(data.train, member_rows),
            _party_inputs(data.test, nonmember_rows),
            shadow_factory,
            atk,
            rng.split("mi"),
            victim_tag=tag,
        )
        reports.append(mi)
    return reports
