import math
import struct

import numpy as np
import numpy.testing as npt
import pytest

from dpvfl.data import (
    Table,
    _split_rows,
    column_sets,
    encode_csv_dataset,
    load_csv,
    load_idx,
    make_synthetic,
    partition_splits,
    split_table,
)
from dpvfl.config import ColumnSpec, DatasetConfig
from dpvfl.errors import ConfigError, DataFormatError, PartitionPlanError
from dpvfl.numerics import Rng


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SCHEMA = (
    ColumnSpec("age", "numeric"),
    ColumnSpec("job", "categorical"),
    ColumnSpec("income", "label"),
)


def encode(path, test_fraction=0.25, seed=0):
    return encode_csv_dataset(load_csv(path, SCHEMA), SCHEMA, test_fraction, seed)


class TestLoadCsv:
    def test_columns_in_schema_order(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", "income, job ,age\nhi, a ,1.5\nlo,b,-2\n")
        age, job, income = load_csv(path, SCHEMA)
        assert age.dtype == np.float64
        npt.assert_array_equal(age, [1.5, -2.0])
        assert job.tolist() == ["a", "b"]
        assert income.tolist() == ["hi", "lo"]

    def test_minmax_endpoints(self, tmp_path):
        # Ages 0, 5 and 10: the two training rows scale to 0 and 1, and the
        # held-out row by the same map, which its age fixes to -1, 0.5 or 2.
        path = write_csv(tmp_path, "a.csv", "age,job,income\n0,a,hi\n5,b,hi\n10,b,hi\n")
        train, test = encode(path)
        npt.assert_array_equal(np.sort(train.features[:, 0]), [0.0, 1.0])
        assert test.features[0, 0] in (-1.0, 0.5, 2.0)

    def test_one_hot_vocabulary(self, tmp_path):
        # The job follows the label (y: a, x: b), so each row's encoded label
        # says which one-hot column holds its 1: the vocabulary is sorted.
        rows = "".join(f"{i},{'b' if i % 2 else 'a'},{'x' if i % 2 else 'y'}\n"
                       for i in range(8))
        train, test = encode(write_csv(tmp_path, "b.csv", "age,job,income\n" + rows))
        assert train.n_features == 3
        for split in (train, test):
            npt.assert_array_equal(split.features[:, 1:3], np.eye(2)[1 - split.labels])

    def test_unknown_test_category_all_zeros(self, tmp_path):
        # Every row has its own job, so no test row's job was seen in training.
        rows = "".join(f"{i},u{i},x\n" for i in range(8))
        train, test = encode(write_csv(tmp_path, "c.csv", "age,job,income\n" + rows))
        assert train.n_features == test.n_features == 1 + train.n_rows
        npt.assert_array_equal(train.features[:, 1:].sum(axis=1), 1.0)
        npt.assert_array_equal(test.features[:, 1:], 0.0)

    def test_malformed_row_names_line(self, tmp_path):
        path = write_csv(tmp_path, "d.csv", "age,job,income\n1,a,x\noops,b,y\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv(path, SCHEMA)

    @pytest.mark.parametrize("body, message", [
        ("1,a,x,0\noops,b,y,0\n1,a,0\n", "line 3: column 'age': not numeric: 'oops'"),
        ("1,a,x,0\n1,a,0\noops,b,y,0\n", "line 3: expected 4 cells, got 3"),
        ("1,a,x,0\n\n2,b,0\n", "line 4: expected 4 cells, got 3"),
        ("1,a,x,7\n2,b,y, z \n", "line 3: column 'wage': not numeric: 'z'"),
        ("1,a,x,s\noops,b,y,t\n", "line 2: column 'wage': not numeric: 's'"),
        ("oops,a,x,s\n", "line 2: column 'age': not numeric: 'oops'"),
    ])
    def test_first_bad_line_in_file_order(self, tmp_path, body, message):
        path = write_csv(tmp_path, "d.csv", "age,job,income,wage\n" + body)
        with pytest.raises(DataFormatError) as excinfo:
            load_csv(path, SCHEMA + (ColumnSpec("wage", "numeric"),))
        assert str(excinfo.value) == f"{path}: {message}"

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "e.csv", "age,income\n1,x\n")
        with pytest.raises(DataFormatError, match="job"):
            load_csv(path, SCHEMA)

    def test_no_data_rows(self, tmp_path):
        path = write_csv(tmp_path, "g.csv", "age,job,income\n\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_csv(path, SCHEMA)

    def test_encode_split_statistics_from_train_only(self, tmp_path):
        rows = "\n".join(f"{v},a,{'x' if v % 2 else 'y'}" for v in range(20))
        train, test = encode(write_csv(tmp_path, "f.csv", "age,job,income\n" + rows + "\n"),
                             seed=3)
        # Recompute: the train split's scaled age column must hit both 0 and 1,
        # while the test column may fall outside [0, 1] if its raw extremes
        # exceeded the train range.
        assert math.isclose(train.features[:, 0].min(), 0.0)
        assert math.isclose(train.features[:, 0].max(), 1.0)
        # Each row's age is its index, scaled by one map for both splits.
        ages = np.concatenate([train.features[:, 0], test.features[:, 0]])
        assert np.unique(ages).size == 20

    def test_unseen_label_named_in_test_row_order(self, tmp_path):
        # Every label is unseen but the training rows' own, so the message
        # must name the label of the first test row.
        rows = "".join(f"{i},a,l{i}\n" for i in range(10))
        path = write_csv(tmp_path, "h.csv", "age,job,income\n" + rows)
        _, test_rows = _split_rows(10, 0.3, 4, "csv-split")
        assert test_rows[0] != test_rows.min()
        with pytest.raises(DataFormatError) as excinfo:
            encode(path, test_fraction=0.3, seed=4)
        assert str(excinfo.value) == f"label 'l{test_rows[0]}' absent from the training split"


def idx_bytes(images, rows, cols):
    n = len(images)
    blob = struct.pack(">IIII", 0x00000803, n, rows, cols)
    for img in images:
        blob += bytes(img)
    return blob


def label_bytes(labels):
    return struct.pack(">II", 0x00000801, len(labels)) + bytes(labels)


class TestLoadIdx:
    def test_byte_scaling_by_hand(self, tmp_path):
        img_path = tmp_path / "img"
        lab_path = tmp_path / "lab"
        img_path.write_bytes(idx_bytes([[0, 255, 128, 64]], 2, 2))
        lab_path.write_bytes(label_bytes([7]))
        table = load_idx(img_path, lab_path)
        npt.assert_allclose(
            table.features[0], [0.0, 1.0, 128 / 255, 64 / 255], atol=1e-12
        )
        assert table.labels[0] == 7
        assert table.image_shape == (2, 2)

    def test_wrong_magic(self, tmp_path):
        img_path = tmp_path / "img"
        img_path.write_bytes(struct.pack(">IIII", 0x00000802, 1, 2, 2) + bytes(4))
        lab_path = tmp_path / "lab"
        lab_path.write_bytes(label_bytes([0]))
        with pytest.raises(DataFormatError, match="unsupported magic"):
            load_idx(img_path, lab_path)

    def test_count_mismatch(self, tmp_path):
        img_path = tmp_path / "img"
        img_path.write_bytes(idx_bytes([[0] * 4] * 10, 2, 2))
        lab_path = tmp_path / "lab"
        lab_path.write_bytes(label_bytes([0] * 9))
        with pytest.raises(DataFormatError, match="does not match"):
            load_idx(img_path, lab_path)

    def test_truncated_payload(self, tmp_path):
        img_path = tmp_path / "img"
        img_path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(5))
        lab_path = tmp_path / "lab"
        lab_path.write_bytes(label_bytes([0, 1]))
        with pytest.raises(DataFormatError, match="payload"):
            load_idx(img_path, lab_path)


def reassemble_columns(dataset, sets, n_features):
    """Inverse of the partition, for round-trip checks."""
    out = np.empty((dataset.n_rows, n_features))
    for cols, feats in zip(sets, dataset.party_features):
        out[:, cols] = feats
    return out


def toy_table(n=8, d=4, seed=0):
    return Table(
        features=Rng(seed).normal(0, 1, (n, d)),
        labels=np.asarray(Rng(seed + 1).integers(0, 2, size=n)),
        n_classes=2,
    )


def image_table(rows, cols, n=3):
    return Table(
        features=Rng(2).normal(0, 1, (n, rows * cols)),
        labels=np.zeros(n, dtype=np.int64),
        n_classes=2,
        image_shape=(rows, cols),
    )


def partition(table, **dataset):
    sets = column_sets(DatasetConfig(**dataset), table)
    return partition_splits(table, table, sets).train, sets


IDX = {"kind": "idx", "images": "i", "labels": "l"}


class TestPartitionVertical:
    def test_even_split(self):
        ds, _ = partition(toy_table(), ranges=[[0, 2], [2, 4]])
        assert ds.n_parties == 2
        assert ds.party_features[0].shape == (8, 2)
        assert ds.party_features[1].shape == (8, 2)

    def test_round_trip(self):
        table = toy_table(d=7)
        ds, sets = partition(table, ranges=[[0, 3], [3, 7]])
        npt.assert_array_equal(reassemble_columns(ds, sets, 7), table.features)

    def test_image_halves(self):
        table = image_table(28, 28)
        ds, sets = partition(table, **IDX, halves=["left", "right"])
        assert ds.party_features[0].shape == (3, 392)
        assert ds.party_features[1].shape == (3, 392)
        npt.assert_array_equal(reassemble_columns(ds, sets, 28 * 28), table.features)

    def test_halves_in_named_order_before_ranges(self):
        grid = np.arange(16).reshape(4, 4)
        sets = column_sets(DatasetConfig(**IDX, halves=["bottom", "top"],
                                         ranges=[[0, 8], [8, 16]]), image_table(4, 4))
        npt.assert_array_equal(sets[0], grid[2:, :].ravel())
        npt.assert_array_equal(sets[1], grid[:2, :].ravel())

    def test_partition_splits_one_column_sets_for_both(self):
        train, test = toy_table(n=8, d=5), toy_table(n=3, d=5, seed=4)
        sets = column_sets(DatasetConfig(ranges=[[0, 1], [1, 5]]), train)
        splits = partition_splits(train, test, sets)
        for split, table in ((splits.train, train), (splits.test, test)):
            npt.assert_array_equal(split.party_features[0], table.features[:, :1])
            npt.assert_array_equal(split.party_features[1], table.features[:, 1:])
            npt.assert_array_equal(split.labels, table.labels)
            assert split.party_features[1].flags.c_contiguous

    def test_duplicate_column_rejected(self):
        with pytest.raises(PartitionPlanError, match="^column 2 assigned to more than one party$"):
            partition(toy_table(), ranges=[[0, 3], [2, 4]])

    def test_missing_column_rejected(self):
        with pytest.raises(PartitionPlanError, match="^column 1 not assigned to any party$"):
            partition(toy_table(), ranges=[[0, 1], [2, 4]])

    @pytest.mark.parametrize("dataset, message", [
        ({"ranges": [[0, 2], [2, 5]]}, "range [2, 5) invalid for 4 columns"),
        ({"ranges": [[2, 2], [0, 4]]}, "range [2, 2) invalid for 4 columns"),
        ({"parties": 5}, "cannot split 4 columns across 5 parties"),
        ({**IDX, "halves": ["left", "right"]},
         "image-half plan needs a table with an image shape"),
    ])
    def test_refused_plans(self, dataset, message):
        with pytest.raises(PartitionPlanError) as excinfo:
            column_sets(DatasetConfig(**dataset), toy_table())
        assert str(excinfo.value) == message

    def test_bad_half_pair(self):
        # dataset.halves is checked when the config is parsed.
        with pytest.raises(ConfigError, match=r"^dataset\.halves must be left and right or "
                                              r"top and bottom, got \['left', 'top'\]$"):
            DatasetConfig(kind="idx", images="i", labels="l", halves=["left", "top"])
        DatasetConfig(kind="idx", images="i", labels="l", halves=["right", "left"])

    def test_even_plan_helper(self):
        sets = column_sets(DatasetConfig(parties=3), toy_table(d=10))
        assert [s.size for s in sets] == [3, 4, 3]
        npt.assert_array_equal(np.concatenate(sets), np.arange(10))


class TestSplitTable:
    def test_disjoint_and_deterministic(self):
        table = toy_table(n=20)
        table.features[:, 0] = np.arange(20)  # each row's index
        a_train, a_test = split_table(table, 0.25, seed=9)
        b_train, b_test = split_table(table, 0.25, seed=9)
        npt.assert_array_equal(a_train.features, b_train.features)
        npt.assert_array_equal(a_test.features, b_test.features)
        train_rows = a_train.features[:, 0].astype(np.int64)
        test_rows = a_test.features[:, 0].astype(np.int64)
        assert set(train_rows).isdisjoint(test_rows)
        assert len(train_rows) + len(test_rows) == 20
        npt.assert_array_equal(a_train.labels, table.labels[train_rows])
        npt.assert_array_equal(a_test.features, table.features[test_rows])


class TestMakeSynthetic:
    def test_deterministic(self):
        ds = DatasetConfig(classes=3, per_class=20, dim=6, spread=0.3)
        a_train, a_test = make_synthetic(ds, 5)
        b_train, b_test = make_synthetic(ds, 5)
        npt.assert_array_equal(a_train.features, b_train.features)
        npt.assert_array_equal(a_test.labels, b_test.labels)

    def test_zero_spread_perfectly_separable(self):
        ds = DatasetConfig(classes=2, per_class=10, dim=4, spread=0.0)
        train, _ = make_synthetic(ds, 1)
        # With zero spread every sample sits exactly on its class mean.
        for label in (0, 1):
            rows = train.features[train.labels == label]
            assert np.ptp(rows, axis=0).max() == 0.0

    def test_split_sizes(self):
        ds = DatasetConfig(classes=2, per_class=50, dim=4, spread=0.5)
        train, test = make_synthetic(ds, 2)
        assert train.n_rows == 80
        assert test.n_rows == 20
        assert train.n_features == test.n_features == 4

    def test_bayes_rate_bounds_any_model(self):
        # Oracle: numerically integrate the overlap of the two 1-D projected
        # class densities to get the Bayes accuracy; no classifier can beat
        # it beyond sampling slack.
        spread = 1.2
        ds = DatasetConfig(classes=2, per_class=400, dim=4, spread=spread)
        _, test = make_synthetic(ds, 3)
        # Projection onto the difference of the class means (e1 - e0): the
        # separation is sqrt(2), per-class std is `spread`.
        grid = np.linspace(-12, 12, 20001)
        sep = math.sqrt(2.0)
        d0 = np.exp(-0.5 * ((grid + sep / 2) / spread) ** 2)
        d1 = np.exp(-0.5 * ((grid - sep / 2) / spread) ** 2)
        norm = spread * math.sqrt(2 * math.pi)
        bayes = 1.0 - 0.5 * np.trapezoid(np.minimum(d0, d1) / norm, grid)

        # Train-free optimal-direction classifier on the test split cannot
        # exceed the Bayes rate by more than sampling error.
        direction = np.zeros(4)
        direction[1], direction[0] = 1.0, -1.0
        scores = test.features @ direction
        preds = (scores > 0).astype(np.int64)
        acc = float(np.mean(preds == test.labels))
        n_test = test.n_rows
        slack = 3 * math.sqrt(bayes * (1 - bayes) / n_test)
        assert acc <= bayes + slack

    def test_validation(self):
        with pytest.raises(ConfigError, match="dataset.classes must be at least 2, got 1"):
            DatasetConfig(classes=1, per_class=10, dim=4, spread=0.1)
        with pytest.raises(ConfigError, match=r"dataset.dim must be at least dataset.classes"):
            DatasetConfig(classes=5, per_class=10, dim=4, spread=0.1)
