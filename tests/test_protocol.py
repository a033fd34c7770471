import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from dpvfl import protocol
from dpvfl.adaptive import purity
from dpvfl.config import AdaptiveSection, ExperimentConfig, parse_config
from dpvfl.errors import ArgumentError, ProtocolError
from dpvfl.experiment import build_dataset, build_parties
from dpvfl.mechanism import PrivacyParams, calibrate_sigma, clip_norm
from dpvfl.neural import DenseNet, cross_entropy_softmax, sgd_step
from dpvfl.numerics import Rng
from dpvfl.protocol import (
    EMBEDDING_UP,
    GRADIENT_DOWN,
    Message,
    MessageChannel,
    Parties,
    PassiveParty,
    evaluate,
    release,
    run_round,
    sample_aligned_batch,
    train,
)

from conftest import assert_one_round_per_channel


def config_for(**overrides) -> ExperimentConfig:
    raw = {
        "seed": 3,
        "dataset": {"kind": "synthetic", "classes": 2, "per_class": 60,
                    "dim": 8, "spread": 0.4, "parties": 2},
        "model": {"embedding_dim": 6, "extractor_hidden": [10]},
        "training": {"learning_rate": 0.05, "batch_size": 24, "epochs": 2,
                     "weight_decay": 0.0, "alpha": 0.1, "beta": 0.5},
        "privacy": {"enabled": True, "epsilon": 0.5, "delta": 1e-2,
                    "clip_threshold": 1.0},
        "adaptive": {"rescale": True, "dist_adjust": True},
    }
    for path, value in overrides.items():
        node = raw
        parts = path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return parse_config(raw)


def build_run(**overrides):
    cfg = config_for(**overrides)
    data = build_dataset(cfg)
    parties = build_parties(cfg, data)
    return cfg, data, parties


class TestMessages:
    def test_payloads_are_immutable(self):
        for kind in (EMBEDDING_UP, GRADIENT_DOWN):
            values = np.ones((2, 2), dtype=np.float32)
            msg = Message(kind, 0, 1, values)
            assert msg.payload.dtype == np.float64
            with pytest.raises(ValueError):
                msg.payload[0, 0] = 5.0
            # The payload is a copy: the sender's buffer stays its own.
            values[0, 0] = 5.0
            assert msg.payload[0, 0] == 1.0

    def test_rounds_leave_no_queued_keys(self):
        cfg, data, parties = build_run()
        channel = MessageChannel()
        rng = Rng(9)
        for batch_index in range(3):
            indices = sample_aligned_batch(data.train.n_rows, 24, rng)
            run_round(parties, indices, batch_index, channel)
        assert channel._pending == {}
        assert len(channel.log) == 12

    def test_missing_message_names_party_and_round(self):
        channel = MessageChannel()
        with pytest.raises(ProtocolError, match="party 3 in round 7"):
            channel.receive(EMBEDDING_UP, 3, 7)

    def test_second_send_for_a_pending_key_refused(self):
        channel = MessageChannel()
        channel.send(Message(GRADIENT_DOWN, 2, 5, np.ones((3, 2))))
        with pytest.raises(ProtocolError,
                           match="a gradient_down message for party 2 in round 5 "
                                 "is still pending"):
            channel.send(Message(GRADIENT_DOWN, 2, 5, np.zeros((3, 2))))
        # The refused message was neither queued nor logged.
        assert len(channel.log) == 1
        npt.assert_array_equal(channel.receive(GRADIENT_DOWN, 2, 5).payload, np.ones((3, 2)))
        # Once received, the key can be sent again.
        channel.send(Message(GRADIENT_DOWN, 2, 5, np.zeros((3, 2))))
        npt.assert_array_equal(channel.receive(GRADIENT_DOWN, 2, 5).payload, np.zeros((3, 2)))
        # Other kinds, parties and rounds are other keys.
        for message in (Message(EMBEDDING_UP, 2, 5, np.ones((1, 1))),
                        Message(GRADIENT_DOWN, 3, 5, np.ones((1, 1))),
                        Message(GRADIENT_DOWN, 2, 6, np.ones((1, 1)))):
            channel.send(message)
        assert len(channel._pending) == 3


class TestSampleAlignedBatch:
    def test_full_batch_is_permutation(self):
        idx = sample_aligned_batch(10, 10, Rng(1))
        npt.assert_array_equal(np.sort(idx), np.arange(10))

    def test_deterministic(self):
        npt.assert_array_equal(
            sample_aligned_batch(100, 32, Rng(5).split("batch")),
            sample_aligned_batch(100, 32, Rng(5).split("batch")),
        )

    def test_oversized_batch_rejected(self):
        with pytest.raises(ArgumentError):
            sample_aligned_batch(5, 6, Rng(0))

    def test_inclusion_frequency_uniform(self):
        n, total, draws = 32, 1000, 10_000
        rng = Rng(11)
        counts = np.zeros(total)
        for _ in range(draws):
            counts[sample_aligned_batch(total, n, rng)] += 1
        expected = draws * n / total
        se = np.sqrt(draws * (n / total) * (1 - n / total))
        deviations = np.abs(counts - expected)
        # ~0.27% of indices are expected beyond 3 SE by chance alone.
        assert np.mean(deviations <= 3 * se) >= 0.99
        assert np.all(deviations <= 6 * se)


def neighbours(kind: str, seed: int, t: float, n: int = 16, dim: int = 6):
    """A batch and its neighbour, which differs from it in row 0 only."""
    rng = np.random.default_rng(seed)
    if kind == "cluster":
        # Every row on the t-sphere near one direction; row 0 goes to its antipode.
        rows = rng.normal(size=dim) + 0.01 * rng.normal(size=(n, dim))
        batch = t * rows / np.linalg.norm(rows, axis=1, keepdims=True)
        moved = -batch[0]
    elif kind == "far":
        batch = rng.normal(size=(n, dim))
        moved = 100.0 * rng.normal(size=dim)
    else:  # "copy": row 0 becomes a copy of row 1
        batch = rng.normal(size=(n, dim))
        moved = batch[1]
    other = batch.copy()
    other[0] = moved
    return batch, other


class TestRelease:
    T = 1.5
    PRIVACY = PrivacyParams.from_budget(0.5, 1e-2, T)
    VANILLA = AdaptiveSection(rescale=False, dist_adjust=False)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["cluster", "far", "copy"])
    def test_neighbours_move_the_noised_batch_at_most_2t(self, kind, seed):
        # The noise is calibrated to a Frobenius sensitivity of 2t, so the
        # batch it is added to may move by at most 2t (mu <= 1/sigma).
        batch, other = neighbours(kind, seed, self.T)
        a = release(batch, self.PRIVACY, self.VANILLA, Rng(seed)).adjusted
        b = release(other, self.PRIVACY, self.VANILLA, Rng(seed)).adjusted
        assert np.linalg.norm(a - b) <= 2 * self.T * (1 + 1e-12)

    def test_antipodal_cluster_row_reaches_the_bound(self):
        batch, other = neighbours("cluster", 0, self.T)
        a = release(batch, self.PRIVACY, self.VANILLA, Rng(0)).adjusted
        b = release(other, self.PRIVACY, self.VANILLA, Rng(0)).adjusted
        assert np.linalg.norm(a - b) == pytest.approx(2 * self.T, rel=1e-12)

    def test_unprotected_releases_the_batch_itself(self):
        batch = np.arange(12.0).reshape(4, 3)
        trace = release(batch, None, AdaptiveSection(), Rng(0))
        assert trace.adjusted is batch and trace.released is batch
        assert trace.estimate is None and trace.factor == 1.0

    def test_compute_release_is_the_forward_then_release(self):
        cfg, data, parties = build_run(**{"privacy.sigma_override": 2.5})
        party = parties.passives[1]
        x = data.train.party_features[1][:16]
        expected = release(party.extractor.copy().forward(x), party.privacy, party.adaptive,
                           Rng(5))
        trace = party.compute_release(x, Rng(5))
        npt.assert_array_equal(trace.adjusted, expected.adjusted)
        npt.assert_array_equal(trace.released, expected.released)


class TestRunRound:
    def test_round_metrics_and_stats(self):
        cfg, data, parties = build_run()
        indices = sample_aligned_batch(data.train.n_rows, 24, Rng(2))
        metrics = run_round(parties, indices, 0, MessageChannel())
        assert np.isfinite(metrics.loss)
        assert 0.0 <= metrics.accuracy <= 1.0
        for stats in metrics.party_stats.values():
            assert stats.delta_local is not None
            assert 0 < stats.delta_local <= 2.0

    def test_head_width_asserts_concatenation(self):
        cfg, data, parties = build_run()
        # Head expects 2 parties x 6 dims; dropping a party must fail loudly.
        lone = Parties(passives=parties.passives[:1], active=parties.active)
        indices = sample_aligned_batch(data.train.n_rows, 24, Rng(2))
        with pytest.raises(ProtocolError, match="width"):
            run_round(lone, indices, 0, MessageChannel())

    def test_purity_is_scored_by_the_label_holder(self):
        cfg, data, parties = build_run()
        channel = MessageChannel()
        rng = Rng(6)
        scored = 0
        for batch_index in range(4):
            indices = sample_aligned_batch(data.train.n_rows, 24, rng)
            labels = data.train.labels[indices]
            metrics = run_round(parties, indices, batch_index, channel)
            for stats in metrics.party_stats.values():
                assignment = stats.assignment
                assert assignment is not None
                if assignment.n_retained:
                    assert stats.purity == purity(assignment, labels, use_mask=True)
                    scored += 1
                else:
                    assert stats.purity is None
        assert scored > 0

    @pytest.mark.parametrize("change", ["degenerate", "keeps no row"])
    def test_purity_none_when_the_assignment_cannot_be_scored(self, monkeypatch, change):
        original = protocol.fcm

        def patched(*args, **kwargs):
            assignment, centers = original(*args, **kwargs)
            if change == "degenerate":
                return replace(assignment, degenerate=True), centers
            return replace(assignment, confidences=np.zeros_like(assignment.confidences)), centers

        monkeypatch.setattr(protocol, "fcm", patched)
        cfg, data, parties = build_run()
        indices = sample_aligned_batch(data.train.n_rows, 24, Rng(2))
        metrics = run_round(parties, indices, 0, MessageChannel())
        for stats in metrics.party_stats.values():
            assert stats.assignment is not None and stats.purity is None
            assert stats.assignment.degenerate == (change == "degenerate")
            assert (stats.assignment.n_retained == 0) == (change == "keeps no row")

    def record_fcm_calls(self, monkeypatch, degenerate_rounds=()):
        """Each fcm call's round, init and rng; the listed rounds come back degenerate."""
        original, calls = protocol.fcm, []

        def recording(*args, **kwargs):
            assignment, centers = original(*args, **kwargs)
            round_index = len(calls) // 2  # two passive parties per round
            calls.append((round_index, kwargs["init"], kwargs["rng"]))
            if round_index in degenerate_rounds:
                assignment = replace(assignment, degenerate=True)
            return assignment, centers

        monkeypatch.setattr(protocol, "fcm", recording)
        return calls

    def run_rounds(self, parties, data, count):
        channel, rng = MessageChannel(), Rng(2)
        for round_index in range(count):
            indices = sample_aligned_batch(data.train.n_rows, 24, rng)
            run_round(parties, indices, round_index, channel)

    def test_party_starts_fcm_from_its_last_centers_and_reseeds_after_a_degenerate_round(
            self, monkeypatch):
        calls = self.record_fcm_calls(monkeypatch, degenerate_rounds={1})
        cfg, data, parties = build_run()
        self.run_rounds(parties, data, 4)
        warm = [(r, init is not None) for r, init, _ in calls]
        assert warm == [(0, False), (0, False), (1, True), (1, True),
                        (2, False), (2, False), (3, True), (3, True)]
        for party_index, party in enumerate(parties.passives):
            for round_index in range(4):
                _, init, rng = calls[2 * round_index + party_index]
                # A reseed draws from the round's stream, as without a warm start.
                assert rng.path == party._fcm_rng.split("round", round_index).path
                if init is not None:
                    assert init.shape == (cfg.dataset.classes, cfg.model.embedding_dim)

    def test_warm_rounds_never_build_the_round_stream(self, monkeypatch):
        calls = self.record_fcm_calls(monkeypatch)
        cfg, data, parties = build_run()
        self.run_rounds(parties, data, 3)
        built = [(r, "_gen" in vars(rng)) for r, _, rng in calls]
        assert built == [(0, True), (0, True), (1, False), (1, False), (2, False), (2, False)]

    def test_training_with_dist_adjust_leaves_numpy_ma_unimported(self, tmp_path):
        # np.unique(..., axis=...) imports numpy.ma, which costs about 1 MB of
        # peak memory per process; fcm finds distinct rows without it.
        raw = {
            "seed": 3,
            "dataset": {"kind": "synthetic", "classes": 2, "per_class": 30, "dim": 6},
            "model": {"embedding_dim": 4, "extractor_hidden": [6]},
            "training": {"batch_size": 16, "epochs": 1},
            "privacy": {"epsilon": 0.5, "delta": 0.01},
            "adaptive": {"rescale": True, "dist_adjust": True},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        script = (
            "import sys\n"
            "from dpvfl.cli import main\n"
            f"assert main(['train', '--config', {str(cfg)!r}, '--out', "
            f"{str(tmp_path / 'run')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = Path(protocol.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "False"

    def test_non_finite_returned_gradient_names_round_and_party(self):
        cfg, data, parties = build_run()
        party = parties.passives[1]
        channel = MessageChannel()
        party.embed_and_share(np.arange(24), 4, channel)
        channel.send(Message(GRADIENT_DOWN, 1, 4, np.full((24, 6), np.inf)))
        with pytest.raises(ProtocolError,
                           match="round 4, party 1: non-finite values in the returned gradient"):
            party.receive_and_update(4, channel)

    def test_vanilla_gating_equals_manual_clip_noise_pipeline(self):
        # With both toggles off the released batch must equal clip + noise
        # applied directly, bit for bit.
        from dpvfl.mechanism import add_noise

        cfg, data, parties = build_run(**{
            "adaptive.rescale": False, "adaptive.dist_adjust": False,
        })
        party = parties.passives[0]
        x = data.train.party_features[0][:16]
        expected_raw = party.extractor.copy().forward(x)
        expected = add_noise(
            clip_norm(expected_raw, 1.0), party.privacy,
            Rng(cfg.seed).split("noise", 0),
        )
        trace = party.compute_release(x, party._noise_rng)
        npt.assert_array_equal(trace.released, expected)
        # No rescale step ran: the noise went onto the clipped batch itself.
        assert trace.estimate is None and trace.factor == 1.0
        npt.assert_array_equal(trace.adjusted, clip_norm(trace.raw, 1.0))

    def test_pipeline_order_witness(self):
        cfg, data, parties = build_run()
        indices = sample_aligned_batch(data.train.n_rows, 24, Rng(4))
        party = parties.passives[0]
        t = party.privacy.clip_threshold
        trace = party.compute_release(data.train.party_features[0][indices], Rng(4))
        clipped = clip_norm(trace.raw, t)
        assert np.linalg.norm(clipped, axis=1).max() <= t
        # Rescale ran on the clipped batch, before the noise.
        assert trace.estimate is not None
        npt.assert_array_equal(trace.adjusted, trace.factor * clipped)
        assert not np.array_equal(trace.released, trace.adjusted)

    def test_boundary_hygiene_spy(self):
        cfg, data, parties = build_run()
        channel = MessageChannel()
        rng = Rng(9)
        for batch_index in range(3):
            indices = sample_aligned_batch(data.train.n_rows, 24, rng)
            run_round(parties, indices, batch_index, channel)
        ups = [m for m in channel.log if m.kind == EMBEDDING_UP]
        assert len(ups) == 6
        # With sigma > 0, no released row may coincide with a pre-noise row.
        for message in ups:
            party = parties.passives[message.party_id]
            x = data.train.party_features[message.party_id]
            raw = party.extractor.copy().forward(x)
            for row in message.payload:
                assert not np.any(np.all(np.isclose(raw, row, atol=1e-12), axis=1))

    def test_noise_calibration_precondition_witness(self):
        cfg, data, parties = build_run(**{
            "adaptive.rescale": False, "adaptive.dist_adjust": False,
        })
        for party in parties.passives:
            assert party.privacy.sigma >= calibrate_sigma(0.5, 1e-2) - 1e-12
            x = data.train.party_features[party.party_id][:20]
            trace = party.compute_release(x, party._noise_rng)
            # With rescale off, the noise goes onto the clipped batch.
            npt.assert_array_equal(trace.adjusted, clip_norm(trace.raw, 1.0))
            assert np.linalg.norm(trace.adjusted, axis=1).max() <= 1.0


class TestTrain:
    @pytest.mark.parametrize("dist_adjust", [True, False])
    def test_epoch_means_are_the_mean_of_the_party_means(self, dist_adjust):
        cfg, data, parties = build_run(**{"training.epochs": 3,
                                          "adaptive.dist_adjust": dist_adjust})
        rounds = []
        history = train(parties, data, Rng(cfg.seed),
                        on_round=lambda epoch, m: rounds.append((epoch, m.party_stats)))

        def mean_of_party_means(epoch, key):
            per_party = [[getattr(stats[pid], key) for e, stats in rounds
                          if e == epoch and getattr(stats[pid], key) is not None]
                         for pid in (0, 1)]
            means = [float(np.mean(v)) for v in per_party if v]
            return sum(means) / len(means) if means else None

        for em in history.epochs:
            assert em.mean_delta == mean_of_party_means(em.epoch, "delta_local")
            assert em.mean_purity == mean_of_party_means(em.epoch, "purity")
            assert (em.mean_purity is None) == (not dist_adjust)

    def test_every_round_gets_its_own_channel(self, recorded_channels):
        cfg, data, parties = build_run()
        history = train(parties, data, Rng(cfg.seed))
        assert len(recorded_channels) == history.rounds > 1
        assert_one_round_per_channel(recorded_channels, [0, 1])

    def test_zero_epochs_noop(self):
        cfg, data, parties = build_run(**{"training.epochs": 0})
        before = [l.weights.copy() for p in parties.passives for l in p.extractor.layers]
        history = train(parties, data, Rng(cfg.seed))
        assert history.epochs == []
        assert history.rounds == 0
        after = [l.weights for p in parties.passives for l in p.extractor.layers]
        for a, b in zip(before, after):
            npt.assert_array_equal(a, b)

    def test_separable_data_noise_off_reaches_high_accuracy(self):
        cfg, data, parties = build_run(**{
            "dataset.spread": 0.15,
            "dataset.per_class": 120,
            "training.epochs": 12,
            "training.learning_rate": 0.3,
            "privacy.sigma_override": 0.0,
            "adaptive.rescale": False,
            "adaptive.dist_adjust": False,
        })
        history = train(parties, data, Rng(cfg.seed))
        assert history.epochs[-1].train_accuracy >= 0.95

    def test_history_deterministic_byte_for_byte(self):
        outputs = []
        for _ in range(2):
            cfg, data, parties = build_run()
            history = train(parties, data, Rng(cfg.seed))
            outputs.append(json.dumps([asdict(e) for e in history.epochs]))
        assert outputs[0] == outputs[1]

    def test_skipping_evaluation_leaves_training_unchanged(self):
        runs = []
        for evaluate_each_epoch in (True, False):
            cfg, data, parties = build_run()
            history = train(parties, data, Rng(cfg.seed),
                            evaluate_each_epoch=evaluate_each_epoch)
            nets = [p.extractor for p in parties.passives] + [parties.active.head]
            runs.append((history, [(l.weights, l.bias) for n in nets for l in n.layers]))
        (evaluated, weights), (skipped, skipped_weights) = runs
        for (w, b), (w2, b2) in zip(weights, skipped_weights):
            assert np.array_equal(w, w2) and np.array_equal(b, b2)
        assert all(e.test_accuracy is not None for e in evaluated.epochs)
        assert all(e.test_accuracy is None for e in skipped.epochs)
        assert [e.train_loss for e in evaluated.epochs] == [e.train_loss for e in skipped.epochs]

    # Unprotected identity nets blow up: at lr 10 the head logits go
    # non-finite first, at lr 1e6 the extractor output.
    @pytest.mark.parametrize("lr, where", [
        (10.0, r"epoch \d+, round \d+, the active party: non-finite values in the head logits"),
        (1e6, r"epoch \d+, round \d+, party 0: non-finite values in the extractor output"),
    ])
    def test_divergence_names_epoch_round_and_party(self, lr, where):
        cfg, data, parties = build_run(**{
            "training.learning_rate": lr, "training.epochs": 4,
            "model.activation": "identity", "privacy.enabled": False,
            "adaptive.rescale": False, "adaptive.dist_adjust": False,
        })
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ProtocolError, match=where):
            train(parties, data, Rng(cfg.seed))

    def test_skipped_contrastive_rounds_give_one_warning(self, caplog):
        # At confidence 0.99 FCM keeps fewer than 2 rows in some rounds.
        cfg, data, parties = build_run(**{"adaptive.confidence_threshold": 0.99})
        retained = []
        with caplog.at_level("WARNING"):
            train(parties, data, Rng(cfg.seed), on_round=lambda e, m: retained.extend(
                s.assignment.n_retained for s in m.party_stats.values()))
        skipped = sum(r < 2 for r in retained)
        assert 0 < skipped < len(retained)
        assert [r.getMessage() for r in caplog.records] == [
            f"contrastive adjustment skipped in {skipped} of {len(retained)} "
            "party-rounds: fewer than 2 rows retained"
        ]

    def test_passive_order_does_not_change_the_run(self):
        # The head's input layout is ascending party id, in whatever order
        # the passive parties are handed over.
        histories = []
        for order in (1, -1):
            cfg, data, parties = build_run(**{
                "dataset.classes": 4, "training.epochs": 4, "privacy.enabled": False,
                "adaptive.rescale": False, "adaptive.dist_adjust": False,
            })
            parties = Parties(passives=parties.passives[::order], active=parties.active)
            history = train(parties, data, Rng(cfg.seed))
            histories.append([(e.train_loss, e.test_accuracy) for e in history.epochs])
        assert histories[0] == histories[1]

    def test_round_callback_sees_every_round(self):
        cfg, data, parties = build_run(**{"training.epochs": 1})
        seen = []
        train(parties, data, Rng(cfg.seed), on_round=lambda e, m: seen.append((e, m.round_index)))
        assert len(seen) == data.train.n_rows // 24
        assert all(isinstance(m, int) for _, m in seen)


class TestCentralizedEquivalence:
    def test_noise_off_single_party_matches_centralized(self):
        # One passive party, noise off, clipping inert via a huge threshold:
        # the split pipeline must reproduce a stacked centralized model's
        # loss trajectory exactly.
        cfg = config_for(**{
            "dataset.parties": 1,
            "dataset.per_class": 120,
            "training.epochs": 1,
            "training.batch_size": 20,
            "training.weight_decay": 1e-3,
            "privacy.clip_threshold": 1e9,
            "privacy.sigma_override": 0.0,
            "adaptive.rescale": False,
            "adaptive.dist_adjust": False,
        })
        data = build_dataset(cfg)
        parties = build_parties(cfg, data)

        stacked = DenseNet(
            [l for l in parties.passives[0].extractor.copy().layers]
            + [l for l in parties.active.head.copy().layers]
        )
        features = data.train.party_features[0]
        labels = data.train.labels
        batch_rng = Rng(cfg.seed).split("batch")
        central_losses = []
        config = parties.active.config
        for _ in range(100):
            idx = sample_aligned_batch(data.train.n_rows, config.batch_size, batch_rng)
            logits = stacked.forward(features[idx])
            loss, grad = cross_entropy_softmax(logits, labels[idx])
            central_losses.append(loss)
            grads, _ = stacked.backward(grad)
            sgd_step(stacked, grads, config)

        vfl_losses = []
        channel = MessageChannel()
        batch_rng = Rng(cfg.seed).split("batch")
        for step in range(100):
            idx = sample_aligned_batch(data.train.n_rows, config.batch_size, batch_rng)
            metrics = run_round(parties, idx, step, channel)
            vfl_losses.append(metrics.loss)

        npt.assert_allclose(vfl_losses, central_losses, atol=1e-9)


class TestEvaluate:
    def test_noisy_evaluation_uses_rng(self):
        cfg, data, parties = build_run()
        a = evaluate(parties, data.test, Rng(1))
        b = evaluate(parties, data.test, Rng(1))
        assert a == b

    def test_repeats_equal_mean_of_single_draws(self):
        cfg, data, parties = build_run()
        rng = Rng(5).split("eval-epoch", 1)
        single = [evaluate(parties, data.test, rng.split("repeat", i), repeats=1)
                  for i in range(3)]
        assert evaluate(parties, data.test, rng, repeats=3) == float(np.mean(single))

    def test_unprotected_repeats_give_the_single_release_accuracy(self):
        cfg, data, parties = build_run(**{
            "privacy.enabled": False, "adaptive.rescale": False, "adaptive.dist_adjust": False,
        })
        train(parties, data, Rng(0), evaluate_each_epoch=False)
        # Without the mechanism every repeat is the same release.
        assert (evaluate(parties, data.test, Rng(1), repeats=3)
                == evaluate(parties, data.test, Rng(1), repeats=1))

    def test_repeats_share_one_release_per_batch_and_party(self, monkeypatch):
        cfg, data, parties = build_run(**{"training.batch_size": 10})
        calls = []
        original = PassiveParty.compute_release

        def counting(self, *args, **kwargs):
            calls.append(self.party_id)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PassiveParty, "compute_release", counting)
        evaluate(parties, data.test, Rng(1), repeats=3)
        batches = -(-data.test.n_rows // 10)
        assert batches > 1
        assert len(calls) == batches * len(parties.passives)

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_noise_off_equals_zero_sigma_override(self, repeats):
        cfg, data, parties = build_run()
        train(parties, data, Rng(0), evaluate_each_epoch=False)
        _, _, zero = build_run(**{"privacy.sigma_override": 0.0})
        for party, rebuilt in zip(parties.passives, zero.passives):
            rebuilt.extractor = party.extractor.copy()
            x = data.test.party_features[party.party_id]
            npt.assert_array_equal(party.compute_release(x, Rng(1)).adjusted,
                                   rebuilt.compute_release(x, Rng(1)).released)
        zero.active.head = parties.active.head.copy()
        # Noise off, evaluation draws nothing from its stream.
        assert (evaluate(zero, data.test, Rng(1), repeats=repeats)
                == evaluate(zero, data.test, Rng(2), repeats=repeats))

    def test_refuses_a_pending_round(self):
        cfg, data, parties = build_run()
        channel = MessageChannel()
        indices = np.arange(cfg.training.batch_size)
        for party in parties.passives:
            party.embed_and_share(indices, 4, channel)
        with pytest.raises(ProtocolError, match="party 0 has round 4 pending"):
            evaluate(parties, data.test, Rng(1))
        parties.active.aggregate_and_step([0, 1], indices, 4, channel)
        for party in parties.passives:
            party.receive_and_update(4, channel)
        assert 0.0 <= evaluate(parties, data.test, Rng(1)) <= 1.0

    def test_party_isolation_invariants(self):
        cfg, data, parties = build_run()
        for party in parties.passives:
            assert not hasattr(party, "labels")
        assert not hasattr(parties.active, "features")
