import struct

import numpy as np
import numpy.testing as npt
import pytest

from dpvfl.config import ExperimentConfig, load_config, parse_config
from dpvfl.errors import ConfigError
from dpvfl import data as data_module
from dpvfl import protocol
from dpvfl.data import ColumnSpec, Table, encode_csv_dataset, load_csv, load_idx, split_table
from dpvfl.experiment import (
    VflVictim,
    _shadow_run,
    build_dataset,
    build_parties,
    measure_stage_times,
    run_attack_suite,
    run_training,
)
from dpvfl.numerics import Rng


def tiny_raw(**overrides):
    raw = {
        "seed": 2,
        "dataset": {"kind": "synthetic", "classes": 2, "per_class": 40,
                    "dim": 6, "spread": 0.5, "parties": 2},
        "model": {"embedding_dim": 4, "extractor_hidden": [8]},
        "training": {"learning_rate": 0.05, "batch_size": 16, "epochs": 1,
                     "alpha": 0.1, "beta": 0.5},
        "privacy": {"epsilon": 0.5, "delta": 0.01, "clip_threshold": 1.0},
        "adaptive": {"rescale": True, "dist_adjust": True},
    }
    for path, value in overrides.items():
        node = raw
        parts = path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return raw


class TestConfig:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown config key: dataset.blobs"):
            parse_config(tiny_raw(**{"dataset.blobs": 3}))

    def test_unknown_nested_key_named(self):
        for dotted in ("training.momentum", "adaptive.fuzzifier", "adaptive.fcm_max_iter",
                       "adaptive.fcm_tol", "adaptive.kl_diagnostic"):
            with pytest.raises(ConfigError, match=f"unknown config key: {dotted}$"):
                parse_config(tiny_raw(**{dotted: 0.9}))

    # With the two tests above (dataset, training) this covers every key set.
    @pytest.mark.parametrize("section", [
        "", "model", "privacy", "adaptive", "evaluation", "attack", "ablate", "timing",
    ])
    def test_unknown_key_named_in_every_section(self, section):
        dotted = f"{section}.blobs" if section else "blobs"
        with pytest.raises(ConfigError, match=f"unknown config key: {dotted}$"):
            parse_config(tiny_raw(**{dotted: 3}))

    def test_unknown_column_key_named(self):
        raw = tiny_raw(**{"dataset.columns": [{"name": "a", "kind": "numeric", "unit": "m"}]})
        with pytest.raises(ConfigError, match="unknown config key: dataset.columns.unit"):
            parse_config(raw)

    @pytest.mark.parametrize("dotted, value, expected", [
        ("seed", True, "seed must be an integer, got True"),
        ("training.epochs", 2.5, "training.epochs must be an integer, got 2.5"),
        ("training.epochs", "1", "training.epochs must be an integer, got '1'"),
        ("training.learning_rate", "0.1", "training.learning_rate must be a number, got '0.1'"),
        ("training.learning_rate", False, "training.learning_rate must be a number, got False"),
        ("privacy.enabled", 1, "privacy.enabled must be a boolean, got 1"),
        ("privacy.sigma_override", "2", "privacy.sigma_override must be a number or null, got '2'"),
        ("dataset.limit", 1.5, "dataset.limit must be an integer or null, got 1.5"),
        ("model.activation", 3, "model.activation must be a string, got 3"),
    ])
    def test_mistyped_scalar_named(self, dotted, value, expected):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(tiny_raw(**{dotted: value}))
        assert str(excinfo.value) == expected

    def test_scalar_types_accepted(self):
        cfg = parse_config(tiny_raw(**{
            "training.epochs": 3.0, "training.learning_rate": 1,
            "privacy.sigma_override": None, "dataset.limit": None,
        }))
        assert cfg.training.epochs == 3 and type(cfg.training.epochs) is int
        assert cfg.training.learning_rate == 1
        assert cfg.privacy.sigma_override is None and cfg.dataset.limit is None

    def test_round_trips_through_json(self, tmp_path):
        cfg = parse_config(tiny_raw())
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        again = load_config(path)
        assert again == cfg

    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.model.embedding_dim == 16


class TestBuilders:
    def test_dataset_shapes(self):
        cfg = parse_config(tiny_raw())
        data = build_dataset(cfg)
        assert data.train.n_parties == 2
        assert data.train.n_rows == 64
        assert data.test.n_rows == 16

    def test_party_construction(self):
        cfg = parse_config(tiny_raw())
        data = build_dataset(cfg)
        parties = build_parties(cfg, data)
        assert len(parties.passives) == 2
        assert parties.active.head.input_dim == 8  # 2 parties x 4 dims
        for party in parties.passives:
            assert party.privacy is not None
            assert party.adaptive.n_clusters == 2

    def test_explicit_column_ranges(self):
        cfg = parse_config(tiny_raw(**{"dataset.ranges": [[0, 4], [4, 6]]}))
        data = build_dataset(cfg)
        assert data.train.party_features[0].shape[1] == 4
        assert data.train.party_features[1].shape[1] == 2

    @pytest.mark.parametrize("dataset, widths", [
        ({"ranges": [[0, 2], [2, 6]]}, [2, 4]),
        ({"parties": 3}, [2, 2, 2]),
    ])
    def test_synthetic_partitions_split_the_same_rows(self, dataset, widths):
        default = build_dataset(parse_config(tiny_raw()))
        cfg = parse_config(tiny_raw(**{f"dataset.{k}": v for k, v in dataset.items()}))
        data = build_dataset(cfg)
        for split, reference in ((data.train, default.train), (data.test, default.test)):
            assert [f.shape[1] for f in split.party_features] == widths
            npt.assert_array_equal(
                np.hstack(split.party_features), np.hstack(reference.party_features)
            )
            npt.assert_array_equal(split.labels, reference.labels)
            npt.assert_array_equal(split.sample_ids, reference.sample_ids)

    def test_unprotected_mode(self):
        cfg = parse_config(tiny_raw(**{
            "privacy.enabled": False,
            "adaptive.rescale": False,
            "adaptive.dist_adjust": False,
        }))
        data = build_dataset(cfg)
        parties = build_parties(cfg, data)
        assert all(p.privacy is None for p in parties.passives)
        x = data.train.party_features[0][:8]
        trace = parties.passives[0].compute_release(x, Rng(0))
        npt.assert_array_equal(trace.released, trace.raw)

    def test_run_training_deterministic(self):
        cfg = parse_config(tiny_raw(**{"training.epochs": 2}))
        a = run_training(cfg)
        b = run_training(cfg)
        for ea, eb in zip(a.history.epochs, b.history.epochs):
            assert ea == eb


CSV_COLUMNS = [
    {"name": "age", "kind": "numeric"},
    {"name": "job", "kind": "categorical"},
    {"name": "income", "kind": "label"},
]


def write_csv_dataset(tmp_path):
    jobs = ("clerk", "nurse", "smith")
    lines = ["age,job,income"] + [
        f"{20 + 3 * i},{jobs[i % 3]},{'hi' if i % 4 < 2 else 'lo'}" for i in range(32)
    ]
    path = tmp_path / "people.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_idx_dataset(tmp_path, count=20, rows=4, cols=4):
    pixels = np.asarray(Rng(8).integers(0, 256, size=count * rows * cols), dtype=np.uint8)
    labels = np.arange(count, dtype=np.uint8) % 3
    images = tmp_path / "images.idx"
    images.write_bytes(struct.pack(">IIII", 0x00000803, count, rows, cols) + pixels.tobytes())
    label_path = tmp_path / "labels.idx"
    label_path.write_bytes(struct.pack(">II", 0x00000801, count) + labels.tobytes())
    return images, label_path


def partitioned_tables(monkeypatch) -> dict:
    """Record the table of each split that build_dataset partitions."""
    seen = {}
    original = data_module.partition_vertical

    def spy(table, plan, split="train"):
        seen[split] = table
        return original(table, plan, split)

    monkeypatch.setattr(data_module, "partition_vertical", spy)
    return seen


class TestFileDatasets:
    def csv_config(self, path, **dataset):
        return parse_config(tiny_raw(**{
            "dataset": {"kind": "csv", "path": str(path), "columns": CSV_COLUMNS,
                        "test_fraction": 0.25, "parties": 2, **dataset},
        }))

    def encoded(self, path, cfg):
        raw = load_csv(path, tuple(ColumnSpec(c["name"], c["kind"]) for c in CSV_COLUMNS))
        return encode_csv_dataset(raw, cfg.dataset.test_fraction, cfg.seed)

    @pytest.mark.parametrize("limit", [None, 10, 500])
    def test_csv_split_limit_and_names(self, tmp_path, monkeypatch, limit):
        path = write_csv_dataset(tmp_path)
        cfg = self.csv_config(path, limit=limit)
        train, test = self.encoded(path, cfg)
        seen = partitioned_tables(monkeypatch)
        data = build_dataset(cfg)
        keep = train.n_rows if limit is None else min(limit, train.n_rows)
        npt.assert_array_equal(np.hstack(data.train.party_features), train.features[:keep])
        npt.assert_array_equal(data.train.labels, train.labels[:keep])
        npt.assert_array_equal(data.train.sample_ids, train.sample_ids[:keep])
        # The limit trims the training split only.
        npt.assert_array_equal(np.hstack(data.test.party_features), test.features)
        npt.assert_array_equal(data.test.sample_ids, test.sample_ids)
        assert data.train.n_classes == data.test.n_classes == 2
        assert seen["train"].feature_names == train.feature_names
        assert train.feature_names == ("age", "job=clerk", "job=nurse", "job=smith")

    def test_csv_column_ranges(self, tmp_path):
        path = write_csv_dataset(tmp_path)
        cfg = self.csv_config(path, ranges=[[0, 1], [1, 4]], limit=10)
        train, test = self.encoded(path, cfg)
        data = build_dataset(cfg)
        npt.assert_array_equal(data.train.party_features[0], train.features[:10, :1])
        npt.assert_array_equal(data.train.party_features[1], train.features[:10, 1:])
        npt.assert_array_equal(data.test.party_features[1], test.features[:, 1:])

    def test_csv_needs_path_and_columns(self):
        cfg = parse_config(tiny_raw(**{"dataset": {"kind": "csv"}}))
        with pytest.raises(ConfigError, match="'path' and 'columns'"):
            build_dataset(cfg)

    @pytest.mark.parametrize("halves", [["left", "right"], ["top", "bottom"]])
    def test_idx_limit_and_halves(self, tmp_path, monkeypatch, halves):
        images, labels = write_idx_dataset(tmp_path)
        cfg = parse_config(tiny_raw(**{
            "dataset": {"kind": "idx", "images": str(images), "labels": str(labels),
                        "halves": halves, "limit": 12, "test_fraction": 0.25},
        }))
        seen = partitioned_tables(monkeypatch)
        data = build_dataset(cfg)
        table = load_idx(images, labels)
        first = Table(features=table.features[:12], labels=table.labels[:12],
                      n_classes=table.n_classes, sample_ids=table.sample_ids[:12],
                      image_shape=table.image_shape)
        train, test = split_table(first, cfg.dataset.test_fraction, cfg.seed)
        assert seen["train"].image_shape == seen["test"].image_shape == (4, 4)
        grid = np.arange(16).reshape(4, 4)
        first_half = grid[:, :2] if halves[0] == "left" else grid[:2, :]
        npt.assert_array_equal(data.train.party_features[0], train.features[:, first_half.ravel()])
        npt.assert_array_equal(data.test.party_features[0], test.features[:, first_half.ravel()])
        npt.assert_array_equal(data.train.sample_ids, train.sample_ids)
        assert data.train.n_rows + data.test.n_rows == 12
        assert data.train.n_classes == 3

    def test_idx_needs_images_and_labels(self):
        cfg = parse_config(tiny_raw(**{"dataset": {"kind": "idx"}}))
        with pytest.raises(ConfigError, match="'images' and 'labels'"):
            build_dataset(cfg)

    @pytest.mark.parametrize("key, value", [("halves", ["left", "right"]), ("limit", 5)])
    def test_synthetic_rejects_file_dataset_key(self, key, value):
        cfg = parse_config(tiny_raw(**{f"dataset.{key}": value}))
        with pytest.raises(ConfigError,
                           match=f"dataset.{key} does not apply to a synthetic dataset"):
            build_dataset(cfg)

    def test_unknown_kind(self):
        cfg = parse_config(tiny_raw(**{"dataset": {"kind": "parquet"}}))
        with pytest.raises(ConfigError, match="unknown dataset kind 'parquet'"):
            build_dataset(cfg)


def count_evaluations(monkeypatch) -> list:
    calls = []
    original = protocol.evaluate

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(protocol, "evaluate", counting)
    return calls


class TestEvaluationPerEpoch:
    def test_shadow_run_never_evaluates(self, monkeypatch):
        cfg = parse_config(tiny_raw(**{"attack.shadow_epochs": 2}))
        calls = count_evaluations(monkeypatch)
        shadow, data = _shadow_run(cfg, 0, build_dataset(cfg), None)
        assert calls == []
        assert data.train.n_rows > 0

    def test_run_training_evaluates_every_epoch(self, monkeypatch):
        cfg = parse_config(tiny_raw(**{"training.epochs": 3}))
        calls = count_evaluations(monkeypatch)
        result = run_training(cfg)
        assert len(calls) == 3
        assert all(e.test_accuracy is not None for e in result.history.epochs)


class TestVictimAccess:
    def test_release_and_predict_shapes(self):
        cfg = parse_config(tiny_raw())
        result = run_training(cfg)
        victim = VflVictim(result.parties)
        x0 = result.data.test.party_features[0][:10]
        emb = victim.release_embeddings(0, x0, Rng(5))
        assert emb.shape == (10, 4)
        probs = victim.predict_proba(
            [result.data.test.party_features[p][:10] for p in range(2)], Rng(6)
        )
        assert probs.shape == (10, 2)
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_queries_leave_the_weights_unchanged(self):
        result = run_training(parse_config(tiny_raw()))
        nets = [p.extractor for p in result.parties.passives] + [result.parties.active.head]
        before = [[(layer.weights.copy(), layer.bias.copy()) for layer in net.layers]
                  for net in nets]
        victim = VflVictim(result.parties)
        xs = [result.data.test.party_features[p][:10] for p in range(2)]
        first = victim.release_embeddings(0, xs[0], Rng(5))
        victim.predict_proba(xs, Rng(6))
        npt.assert_array_equal(victim.release_embeddings(0, xs[0], Rng(5)), first)
        for net, layers in zip(nets, before):
            for layer, (weights, bias) in zip(net.layers, layers):
                npt.assert_array_equal(layer.weights, weights)
                npt.assert_array_equal(layer.bias, bias)


class TestAttackSuite:
    def test_reports_grid_shape(self):
        cfg = parse_config(tiny_raw(**{
            "attack.decoder_epochs": 5, "attack.shadows": 2,
            "attack.shadow_epochs": 1, "attack.attack_epochs": 10,
            "attack.eval_per_side": 8,
        }))
        victims = {
            "unprotected": run_training(parse_config(tiny_raw(**{
                "privacy.enabled": False, "adaptive.rescale": False,
                "adaptive.dist_adjust": False,
            }))),
            "vanilla": run_training(parse_config(tiny_raw(**{
                "adaptive.rescale": False, "adaptive.dist_adjust": False,
            }))),
            "full": run_training(parse_config(tiny_raw())),
        }
        reports = run_attack_suite(cfg, victims)
        assert len(reports) == 6  # 3 victims x 2 attacks
        kinds = {(r.victim, r.kind) for r in reports}
        assert kinds == {
            (v, k) for v in ("unprotected", "vanilla", "full")
            for k in ("inversion", "membership_inference")
        }
        for r in reports:
            if r.kind == "membership_inference":
                assert 0.0 <= r.metric <= 1.0
                assert r.details["members"] == r.details["nonmembers"]

    def test_embedding_level_variant(self):
        cfg = parse_config(tiny_raw(**{
            "attack.decoder_epochs": 3, "attack.shadows": 2,
            "attack.shadow_epochs": 1, "attack.attack_epochs": 5,
            "attack.eval_per_side": 8, "attack.level": "embedding",
        }))
        victims = {"full": run_training(parse_config(tiny_raw()))}
        reports = run_attack_suite(cfg, victims)
        mi = [r for r in reports if r.kind == "membership_inference"]
        assert len(mi) == 1 and 0.0 <= mi[0].metric <= 1.0


class TestTiming:
    def test_shares_accounting_identity(self):
        cfg = parse_config(tiny_raw(**{"timing.rounds": 5}))
        seconds = measure_stage_times(cfg)
        assert set(seconds) == {"base", "noise", "rescale", "dist_adjust"}
        total = sum(seconds.values())
        shares = [100 * v / total for v in seconds.values()]
        assert abs(sum(shares) - 100.0) < 0.1

    def test_disabled_stages_zero(self):
        cfg = parse_config(tiny_raw(**{
            "privacy.enabled": False,
            "adaptive.rescale": False,
            "adaptive.dist_adjust": False,
            "timing.rounds": 3,
        }))
        seconds = measure_stage_times(cfg)
        assert seconds["noise"] == 0.0
        assert seconds["rescale"] == 0.0
        assert seconds["dist_adjust"] == 0.0
        assert seconds["base"] > 0.0
