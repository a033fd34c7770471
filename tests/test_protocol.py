import json
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest

from dpvfl.config import ExperimentConfig, parse_config
from dpvfl.errors import ArgumentError, ProtocolError
from dpvfl.experiment import build_dataset, build_parties
from dpvfl.mechanism import calibrate_sigma
from dpvfl.neural import DenseNet, cross_entropy_softmax, sgd_step
from dpvfl.numerics import Rng
from dpvfl.protocol import (
    EMBEDDING_UP,
    EmbeddingUp,
    GradientDown,
    MessageChannel,
    Parties,
    PassiveParty,
    evaluate,
    run_round,
    sample_aligned_batch,
    train,
)


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
        msg = EmbeddingUp(0, 1, np.ones((2, 2)))
        with pytest.raises(ValueError):
            msg.embeddings[0, 0] = 5.0
        msg = GradientDown(0, 1, np.ones((2, 2)))
        with pytest.raises(ValueError):
            msg.grad[0, 0] = 5.0

    def test_rounds_leave_no_queued_keys(self):
        cfg, data, parties = build_run()
        channel = MessageChannel()
        rng = Rng(9)
        for batch_index in range(3):
            indices = sample_aligned_batch(data.train.n_rows, 24, rng)
            run_round(parties, indices, batch_index, channel)
        assert channel._queues == {}
        assert len(channel.log) == 12

    def test_missing_message_names_party_and_round(self):
        channel = MessageChannel()
        with pytest.raises(ProtocolError, match="party 3 in round 7"):
            channel.receive(EMBEDDING_UP, 3, 7)


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


class TestRunRound:
    def test_round_metrics_and_stats(self):
        cfg, data, parties = build_run()
        indices = sample_aligned_batch(data.train.n_rows, 24, Rng(2))
        metrics = run_round(parties, indices, 0,
                            batch_labels_for_diagnostics=data.train.labels[indices])
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
            run_round(lone, indices, 0)

    def test_non_finite_returned_gradient_names_round_and_party(self):
        cfg, data, parties = build_run()
        party = parties.passives[1]
        channel = MessageChannel()
        party.embed_and_share(np.arange(24), 4, channel)
        channel.send(GradientDown(1, 4, np.full((24, 6), np.inf)))
        with pytest.raises(ProtocolError,
                           match="round 4, party 1: non-finite values in the returned gradient"):
            party.receive_and_update(4, channel)

    def test_vanilla_gating_equals_manual_clip_noise_pipeline(self):
        # With both toggles off the released batch must equal clip + noise
        # applied directly, bit for bit.
        from dpvfl.mechanism import add_noise, clip_norm

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
        npt.assert_array_equal(trace.adjusted, trace.clipped)

    def test_pipeline_order_witness(self):
        cfg, data, parties = build_run()
        indices = sample_aligned_batch(data.train.n_rows, 24, Rng(4))
        party = parties.passives[0]
        channel = MessageChannel()
        party.embed_and_share(indices, 0, channel)
        trace = party._trace
        assert np.linalg.norm(trace.clipped, axis=1).max() <= party.privacy.clip_threshold
        # Rescale ran on the clipped batch, before the noise.
        assert trace.estimate is not None
        npt.assert_array_equal(trace.adjusted, trace.factor * trace.clipped)
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
            for row in np.asarray(message.embeddings):
                assert not np.any(np.all(np.isclose(raw, row, atol=1e-12), axis=1))

    def test_noise_calibration_precondition_witness(self):
        cfg, data, parties = build_run(**{
            "adaptive.rescale": False, "adaptive.dist_adjust": False,
        })
        for party in parties.passives:
            assert party.privacy.sigma >= calibrate_sigma(0.5, 1e-2) - 1e-12
            x = data.train.party_features[party.party_id][:20]
            trace = party.compute_release(x, party._noise_rng)
            assert np.linalg.norm(trace.clipped, axis=1).max() <= 1.0


class TestTrain:
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
    def test_noise_off_evaluation_is_deterministic_diagnostic(self):
        cfg, data, parties = build_run()
        a = evaluate(parties, data.test, Rng(1), with_noise=False)
        b = evaluate(parties, data.test, Rng(2), with_noise=False)
        assert a == b

    def test_noisy_evaluation_uses_rng(self):
        cfg, data, parties = build_run()
        a = evaluate(parties, data.test, Rng(1), with_noise=True)
        b = evaluate(parties, data.test, Rng(1), with_noise=True)
        assert a == b

    def test_repeats_equal_mean_of_single_draws(self):
        cfg, data, parties = build_run()
        rng = Rng(5).split("eval-epoch", 1)
        single = [evaluate(parties, data.test, rng.split("repeat", i), repeats=1)
                  for i in range(3)]
        assert evaluate(parties, data.test, rng, repeats=3) == float(np.mean(single))

    def test_repeats_share_one_release_per_batch_and_party(self, monkeypatch):
        cfg, data, parties = build_run()
        calls = []
        original = PassiveParty.compute_release

        def counting(self, *args, **kwargs):
            calls.append(self.party_id)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PassiveParty, "compute_release", counting)
        evaluate(parties, data.test, Rng(1), batch_size=10, repeats=3)
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
        noise_off = evaluate(parties, data.test, Rng(1), with_noise=False, repeats=repeats)
        assert noise_off == evaluate(zero, data.test, Rng(1), repeats=repeats)

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
