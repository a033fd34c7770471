import json
import re
import struct
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np
import numpy.testing as npt
import pytest

from dpvfl.config import ColumnSpec, ExperimentConfig, load_config, parse_config
from dpvfl.errors import ConfigError
from dpvfl import experiment
from dpvfl import protocol
from dpvfl.data import Table, encode_csv_dataset, load_csv, load_idx, split_table
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

from conftest import assert_one_round_per_channel


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CSV_COLUMNS = [
    {"name": "age", "kind": "numeric"},
    {"name": "job", "kind": "categorical"},
    {"name": "income", "kind": "label"},
]


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
                       "adaptive.fcm_tol", "adaptive.kl_diagnostic", "evaluation.with_noise"):
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
        with pytest.raises(ConfigError, match=r"unknown config key: dataset\.columns\[0\]\.unit$"):
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

    @pytest.mark.parametrize("dotted, value, expected", [
        ("model.extractor_hidden", 64, "model.extractor_hidden must be a list, got 64"),
        ("model.head_hidden", [8, "8"], "model.head_hidden[1] must be an integer, got '8'"),
        ("ablate.seeds", 3, "ablate.seeds must be a list, got 3"),
        ("dataset.halves", "left", "dataset.halves must be a list or null, got 'left'"),
        ("dataset.ranges", [[0, 2], [2, "6"]],
         "dataset.ranges[1][1] must be an integer, got '6'"),
        ("dataset.ranges", [3], "dataset.ranges[0] must be a list, got 3"),
        ("dataset.columns", ["age"], "dataset.columns[0] must be an object, got 'age'"),
        ("attack.decoder_hidden", [1.5], "attack.decoder_hidden[0] must be an integer, got 1.5"),
    ])
    def test_mistyped_list_named(self, dotted, value, expected):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(tiny_raw(**{dotted: value}))
        assert str(excinfo.value) == expected

    def test_list_types_accepted(self):
        cfg = parse_config(tiny_raw(**{
            "model.extractor_hidden": [8.0], "ablate.seeds": [], "attack.decoder_hidden": None,
        }))
        assert cfg.model.extractor_hidden == [8] and type(cfg.model.extractor_hidden[0]) is int
        assert cfg.ablate.seeds == [] and cfg.attack.decoder_hidden is None

    @pytest.mark.parametrize("dotted, value, expected", [
        ("training.learning_rate", 0, "training.learning_rate must be positive, got 0"),
        ("training.weight_decay", -0.1, "training.weight_decay must be non-negative, got -0.1"),
        ("training.batch_size", 1, "training.batch_size must be at least 2, got 1"),
        ("training.epochs", -1, "training.epochs must be non-negative, got -1"),
        ("evaluation.repeats", 0, "evaluation.repeats must be at least 1, got 0"),
        ("dataset.classes", 1, "dataset.classes must be at least 2, got 1"),
        ("dataset.dim", 1, "dataset.dim must be at least dataset.classes (2), got 1"),
        ("dataset.per_class", 1, "dataset.per_class must be at least 2, got 1"),
        ("dataset.spread", -0.5, "dataset.spread must be non-negative, got -0.5"),
        ("attack.decoder_lr", 0, "attack.decoder_lr must be positive, got 0"),
        ("attack.attack_lr", -1, "attack.attack_lr must be positive, got -1"),
        ("attack.shadow_epochs", -1, "attack.shadow_epochs must be non-negative, got -1"),
        ("timing.batch_size", 1, "timing.batch_size must be at least 2, got 1"),
        ("privacy.epsilon", -1, "privacy.epsilon must be positive, got -1"),
        ("privacy.delta", 0, "privacy.delta must lie in (0, 1), got 0"),
        ("privacy.delta", 1.0, "privacy.delta must lie in (0, 1), got 1.0"),
        ("privacy.clip_threshold", 0, "privacy.clip_threshold must be positive, got 0"),
        ("privacy.p1", 0, "privacy.p1 must lie in (0, 1], got 0"),
        ("privacy.p1", 1.5, "privacy.p1 must lie in (0, 1], got 1.5"),
        ("privacy.sigma_override", -1, "privacy.sigma_override must be non-negative, got -1"),
        ("adaptive.p2", 0, "adaptive.p2 must lie in (0, 1), got 0"),
        ("adaptive.p2", 1.0, "adaptive.p2 must lie in (0, 1), got 1.0"),
        ("adaptive.confidence_threshold", 1.5,
         "adaptive.confidence_threshold must lie in [0, 1], got 1.5"),
        ("adaptive.confidence_threshold", -0.1,
         "adaptive.confidence_threshold must lie in [0, 1], got -0.1"),
        ("dataset.test_fraction", 0, "dataset.test_fraction must lie in (0, 1), got 0"),
        ("dataset.test_fraction", 1, "dataset.test_fraction must lie in (0, 1), got 1"),
        ("dataset.parties", 0, "dataset.parties must be at least 1, got 0"),
        ("dataset", {"kind": "idx", "images": "i", "labels": "l", "halves": ["left"]},
         "dataset.halves must be left and right or top and bottom, got ['left']"),
        ("dataset", {"kind": "csv", "path": "d.csv", "columns": [{"name": "a", "kind": "int"}]},
         "dataset.columns kind of 'a' must be numeric, categorical or label, got 'int'"),
        ("dataset", {"kind": "csv", "path": "d.csv", "columns": [{"name": "", "kind": "label"}]},
         "dataset.columns name must be non-empty, got ''"),
        ("dataset", {"kind": "csv", "path": "d.csv", "columns": [{"kind": "label"}]},
         "missing config key: dataset.columns[0].name"),
        ("model.embedding_dim", 0, "model.embedding_dim must be at least 1, got 0"),
        ("model.extractor_hidden", [8, 0], "model.extractor_hidden[1] must be at least 1, got 0"),
        ("model.head_hidden", [-2], "model.head_hidden[0] must be at least 1, got -2"),
        ("model.activation", "sigmoid",
         "model.activation must be one of identity, relu, tanh, softmax, got 'sigmoid'"),
        ("model.activation", "softmax", "model.activation may be softmax only when "
         "extractor_hidden and head_hidden are empty, got 'softmax'"),
        ("attack.level", "embeding",
         "attack.level must be prediction or embedding, got 'embeding'"),
        ("attack.target_party", -1, "attack.target_party must be non-negative, got -1"),
        ("attack.shadows", 1, "attack.shadows must be at least 2, got 1"),
        ("attack.trials", 0, "attack.trials must be at least 1, got 0"),
        ("attack.eval_per_side", 0, "attack.eval_per_side must be at least 1, got 0"),
        ("attack.attack_hidden", 0, "attack.attack_hidden must be at least 1, got 0"),
        ("attack.decoder_hidden", [0], "attack.decoder_hidden[0] must be at least 1, got 0"),
        ("attack.decoder_hidden", [8, -1],
         "attack.decoder_hidden[1] must be at least 1, got -1"),
        ("timing.rounds", -1, "timing.rounds must be at least 1, got -1"),
        ("timing.rounds", 0, "timing.rounds must be at least 1, got 0"),
        ("dataset", {"kind": "csv", "path": "d.csv", "columns": CSV_COLUMNS,
                     "halves": ["left", "right"]},
         "dataset.halves does not apply to a csv dataset"),
        ("dataset", {"kind": "csv", "path": "d.csv", "columns": CSV_COLUMNS, "limit": 0},
         "dataset.limit must be at least 1, got 0"),
        ("dataset", {"kind": "idx", "images": "i", "labels": "l", "limit": -2},
         "dataset.limit must be at least 1, got -2"),
        ("dataset", {"kind": "csv", "path": "d.csv", "columns": CSV_COLUMNS + CSV_COLUMNS[:1]},
         "dataset.columns[3].name must differ from every earlier column name, got 'age'"),
        ("dataset", {"kind": "csv", "path": "d.csv",
                     "columns": CSV_COLUMNS + [{"name": "band", "kind": "label"}]},
         "dataset.columns must hold exactly one label column, got 2"),
        ("dataset", {"kind": "csv", "path": "d.csv", "columns": CSV_COLUMNS[:2]},
         "dataset.columns must hold exactly one label column, got 0"),
        ("dataset.ranges", [[0, 2], [2, 4], [4, 6]],
         "dataset.ranges must hold one range per party (dataset.parties is 2), "
         "got [[0, 2], [2, 4], [4, 6]]"),
        ("dataset", {"kind": "idx", "images": "i", "labels": "l", "parties": 3,
                     "halves": ["left", "right"]},
         "dataset.parties must be 2 with dataset.halves, got 3"),
    ])
    def test_section_checks_named(self, dotted, value, expected):
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

    def test_softmax_builds_without_hidden_layers(self):
        cfg = parse_config(tiny_raw(**{
            "model": {"embedding_dim": 4, "extractor_hidden": [], "activation": "softmax"},
        }))
        parties = build_parties(cfg, build_dataset(cfg))
        assert parties.passives[0].extractor.layers[-1].activation == "softmax"

    def test_csv_columns_round_trip_through_json(self, tmp_path):
        cfg = parse_config(tiny_raw(**{
            "dataset": {"kind": "csv", "path": "people.csv", "columns": CSV_COLUMNS},
        }))
        assert cfg.dataset.columns == [ColumnSpec(c["name"], c["kind"]) for c in CSV_COLUMNS]
        assert cfg.to_dict()["dataset"]["columns"] == CSV_COLUMNS
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        again = load_config(path)
        assert again == cfg and again.to_json() == cfg.to_json()

    # perfbench's unprotected victim loads attack_victim.json with privacy off.
    @pytest.mark.parametrize("name, privacy_off", [
        *((path.name, False) for path in sorted(CONFIGS.glob("*.json"))),
        ("attack_victim.json", True),
    ])
    def test_shipped_configs_load(self, tmp_path, name, privacy_off):
        path = CONFIGS / name
        if privacy_off:
            raw = json.loads(path.read_text("utf-8"))
            raw["privacy"]["enabled"] = False
            path = tmp_path / "unprotected.json"
            path.write_text(json.dumps(raw), "utf-8")
        assert load_config(path).privacy.enabled is not privacy_off

    def test_readme_schema_table_names_every_field(self):
        """The README "Config schema" table lists exactly each section's fields."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        table = readme.split("| section | keys |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
        listed = {}
        for row in table.splitlines():
            section, keys = (cell.strip() for cell in row.strip("|").split("|"))
            # Split the key list at top-level commas; each item starts with its key.
            items, depth, start = [], 0, 0
            for i, char in enumerate(keys + ","):
                depth += {"(": 1, ")": -1}.get(char, 0)
                if char == "," and depth == 0:
                    items.append(keys[start:i])
                    start = i + 1
            names = [m.group(1) for m in map(re.compile(r"`([^`]+)`").search, items) if m]
            listed[section.strip("`")] = names
        hints = get_type_hints(ExperimentConfig)
        expected = {"(root)": [f.name for f in fields(ExperimentConfig)
                               if not is_dataclass(hints[f.name])]}
        for f in fields(ExperimentConfig):
            if is_dataclass(hints[f.name]):
                expected[f.name] = [g.name for g in fields(hints[f.name])]
        assert {k: sorted(v) for k, v in listed.items()} == {
            k: sorted(v) for k, v in expected.items()
        }


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
            assert party.n_clusters == 2

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
            # Gaussian features make every row distinct, so equal stacks
            # mean the same rows in the same order.
            npt.assert_array_equal(
                np.hstack(split.party_features), np.hstack(reference.party_features)
            )
            npt.assert_array_equal(split.labels, reference.labels)

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
    original = experiment.partition_splits

    def spy(train, test, sets):
        seen.update(train=train, test=test)
        return original(train, test, sets)

    monkeypatch.setattr(experiment, "partition_splits", spy)
    return seen


class TestFileDatasets:
    def csv_config(self, path, **dataset):
        return parse_config(tiny_raw(**{
            "dataset": {"kind": "csv", "path": str(path), "columns": CSV_COLUMNS,
                        "test_fraction": 0.25, "parties": 2, **dataset},
        }))

    def encoded(self, path, cfg):
        schema = tuple(ColumnSpec(c["name"], c["kind"]) for c in CSV_COLUMNS)
        return encode_csv_dataset(load_csv(path, schema), schema, cfg.dataset.test_fraction,
                                  cfg.seed)

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
        # The limit trims the training split only.
        npt.assert_array_equal(np.hstack(data.test.party_features), test.features)
        npt.assert_array_equal(data.test.labels, test.labels)
        assert data.train.n_classes == data.test.n_classes == 2
        npt.assert_array_equal(seen["train"].features, train.features[:keep])
        # Row i has age 20 + 3i, so an age's rank over both splits is its row,
        # and row i's job is clerk, nurse, smith for i % 3 = 0, 1, 2: the
        # columns are age, then the sorted job vocabulary.
        ages = np.concatenate([train.features[:, 0], test.features[:, 0]])
        rows = np.argsort(np.argsort(ages))
        assert train.n_features == 4
        npt.assert_array_equal(train.features[:, 1:], np.eye(3)[rows[:train.n_rows] % 3])

    def test_csv_column_ranges(self, tmp_path):
        path = write_csv_dataset(tmp_path)
        cfg = self.csv_config(path, ranges=[[0, 1], [1, 4]], limit=10)
        train, test = self.encoded(path, cfg)
        data = build_dataset(cfg)
        npt.assert_array_equal(data.train.party_features[0], train.features[:10, :1])
        npt.assert_array_equal(data.train.party_features[1], train.features[:10, 1:])
        npt.assert_array_equal(data.test.party_features[1], test.features[:, 1:])

    def test_csv_needs_path_and_columns(self):
        with pytest.raises(ConfigError, match="'path' and 'columns'"):
            parse_config(tiny_raw(**{"dataset": {"kind": "csv"}}))

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
                      n_classes=table.n_classes, image_shape=table.image_shape)
        train, test = split_table(first, cfg.dataset.test_fraction, cfg.seed)
        assert seen["train"].image_shape == seen["test"].image_shape == (4, 4)
        grid = np.arange(16).reshape(4, 4)
        first_half = grid[:, :2] if halves[0] == "left" else grid[:2, :]
        second_half = grid[:, 2:] if halves[0] == "left" else grid[2:, :]
        # Random pixels make every image distinct, so equal halves mean the
        # same images in the same order.
        for split, table in ((data.train, train), (data.test, test)):
            npt.assert_array_equal(split.party_features[0], table.features[:, first_half.ravel()])
            npt.assert_array_equal(split.party_features[1],
                                   table.features[:, second_half.ravel()])
            npt.assert_array_equal(split.labels, table.labels)
        assert data.train.n_rows + data.test.n_rows == 12
        assert data.train.n_classes == 3

    def test_idx_needs_images_and_labels(self):
        with pytest.raises(ConfigError, match="'images' and 'labels'"):
            parse_config(tiny_raw(**{"dataset": {"kind": "idx"}}))

    @pytest.mark.parametrize("key, value", [("halves", ["left", "right"]), ("limit", 5)])
    def test_synthetic_rejects_file_dataset_key(self, key, value):
        with pytest.raises(ConfigError,
                           match=f"dataset.{key} does not apply to a synthetic dataset"):
            parse_config(tiny_raw(**{f"dataset.{key}": value}))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown dataset kind 'parquet'"):
            parse_config(tiny_raw(**{"dataset": {"kind": "parquet"}}))


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

    def test_zero_sigma_override_releases_the_pre_noise_batch(self):
        result = run_training(parse_config(tiny_raw(**{"privacy.sigma_override": 0.0})))
        victim = VflVictim(result.parties)
        party = result.parties.passives[1]
        assert party.privacy.noise_sigma == 0.0 and party.privacy.sigma > 0
        x = result.data.test.party_features[1][:10]
        npt.assert_array_equal(victim.release_embeddings(1, x, Rng(5)),
                               party.compute_release(x, Rng(5)).adjusted)

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

    def test_file_backed_victims_use_their_held_out_rows(self, tmp_path, monkeypatch):
        # 32 CSV rows, 16 held out: 2 shadows carve 4 chunks of 4 held-out rows.
        path = write_csv_dataset(tmp_path)
        dataset = {"kind": "csv", "path": str(path), "columns": CSV_COLUMNS,
                   "test_fraction": 0.5, "parties": 2}
        victims = {
            "vanilla": run_training(parse_config(tiny_raw(**{
                "dataset": dataset, "adaptive.rescale": False, "adaptive.dist_adjust": False,
            }))),
            "full": run_training(parse_config(tiny_raw(dataset=dataset))),
        }
        shadows = []
        original = experiment._shadow_run

        def spy(cfg, index, victim_data, carve):
            shadow, data = original(cfg, index, victim_data, carve)
            shadows.append((victim_data, carve, index, data))
            return shadow, data

        monkeypatch.setattr(experiment, "_shadow_run", spy)
        cfg = parse_config(tiny_raw(**{
            "attack.decoder_epochs": 3, "attack.shadows": 2, "attack.shadow_epochs": 1,
            "attack.attack_epochs": 5, "attack.eval_per_side": 4,
        }))
        reports = run_attack_suite(cfg, victims)
        assert sorted((r.victim, r.kind) for r in reports) == [
            (v, k) for v in ("full", "vanilla") for k in ("inversion", "membership_inference")
        ]
        assert all(np.isfinite(r.metric) for r in reports)
        assert len(shadows) == 4
        for victim_data, carve, index, data in shadows:
            assert victim_data.test.n_rows == 16
            npt.assert_array_equal(np.sort(np.concatenate(carve)), np.arange(16))
            train_rows, test_rows = carve[2 * index], carve[2 * index + 1]
            assert len(train_rows) == 4 and not set(train_rows) & set(test_rows)
            for part, rows in ((data.train, train_rows), (data.test, test_rows)):
                for features, victim_features in zip(part.party_features,
                                                     victim_data.test.party_features):
                    npt.assert_array_equal(features, victim_features[rows])
        # Each victim's two shadows train on disjoint rows of its held-out split.
        for first, second in (shadows[:2], shadows[2:]):
            assert first[0] is second[0] and first[2] == 0 and second[2] == 1
            assert not set(first[1][0]) & set(second[1][2])

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

    def test_stage_keys_in_table_order(self):
        cfg = parse_config(tiny_raw(**{"timing.rounds": 1}))
        assert list(measure_stage_times(cfg)) == ["base", "noise", "rescale", "dist_adjust"]

    def test_every_round_gets_its_own_channel(self, recorded_channels):
        cfg = parse_config(tiny_raw(**{"timing.rounds": 4}))
        measure_stage_times(cfg)
        assert len(recorded_channels) == 4
        assert_one_round_per_channel(recorded_channels, [0, 1])

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
