import math
import struct

import numpy as np
import numpy.testing as npt
import pytest

from dpvfl.data import (
    ColumnRangePlan,
    ColumnSpec,
    ImageHalfPlan,
    Table,
    encode_csv_dataset,
    even_column_plan,
    load_csv,
    load_idx,
    make_synthetic,
    partition_vertical,
    split_table,
)
from dpvfl.config import DatasetConfig
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


class TestLoadCsv:
    def test_minmax_endpoints(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", "age,job,income\n0,a,hi\n10,b,lo\n")
        raw = load_csv(path, SCHEMA)
        encoder_rows = np.array([0, 1])
        from dpvfl.data import FeatureEncoder

        enc = FeatureEncoder(schema=raw.schema).fit(raw, encoder_rows)
        features, labels, names = enc.transform(raw, encoder_rows)
        npt.assert_allclose(features[:, 0], [0.0, 1.0])

    def test_one_hot_vocabulary(self, tmp_path):
        path = write_csv(tmp_path, "b.csv", "age,job,income\n1,a,x\n2,b,x\n3,a,y\n")
        raw = load_csv(path, SCHEMA)
        from dpvfl.data import FeatureEncoder

        rows = np.array([0, 1, 2])
        enc = FeatureEncoder(schema=raw.schema).fit(raw, rows)
        features, _, names = enc.transform(raw, rows)
        job_block = features[:, 1:3]
        npt.assert_array_equal(job_block, [[1, 0], [0, 1], [1, 0]])
        assert names[1:] == ("job=a", "job=b")

    def test_unknown_test_category_all_zeros(self, tmp_path):
        path = write_csv(tmp_path, "c.csv", "age,job,income\n1,a,x\n2,b,x\n3,zz,x\n")
        raw = load_csv(path, SCHEMA)
        from dpvfl.data import FeatureEncoder

        enc = FeatureEncoder(schema=raw.schema).fit(raw, np.array([0, 1]))
        features, _, _ = enc.transform(raw, np.array([2]))
        npt.assert_array_equal(features[0, 1:3], [0.0, 0.0])

    def test_malformed_row_names_line(self, tmp_path):
        path = write_csv(tmp_path, "d.csv", "age,job,income\n1,a,x\noops,b,y\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv(path, SCHEMA)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "e.csv", "age,income\n1,x\n")
        with pytest.raises(DataFormatError, match="job"):
            load_csv(path, SCHEMA)

    def test_encode_split_statistics_from_train_only(self, tmp_path):
        rows = "\n".join(f"{v},a,{'x' if v % 2 else 'y'}" for v in range(20))
        path = write_csv(tmp_path, "f.csv", "age,job,income\n" + rows + "\n")
        raw = load_csv(path, SCHEMA)
        train, test = encode_csv_dataset(raw, test_fraction=0.25, seed=3)
        # Recompute: the train split's scaled age column must hit both 0 and 1,
        # while the test column may fall outside [0, 1] if its raw extremes
        # exceeded the train range.
        assert math.isclose(train.features[:, 0].min(), 0.0)
        assert math.isclose(train.features[:, 0].max(), 1.0)
        assert set(train.sample_ids).isdisjoint(set(test.sample_ids))


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


def reassemble_columns(dataset, plan, n_features, image_shape=None):
    """Inverse of partition_vertical, for round-trip checks."""
    out = np.empty((dataset.n_rows, n_features))
    for cols, feats in zip(plan.column_sets(n_features, image_shape), dataset.party_features):
        out[:, cols] = feats
    return out


def toy_table(n=8, d=4, seed=0):
    return Table(
        features=Rng(seed).normal(0, 1, (n, d)),
        labels=np.asarray(Rng(seed + 1).integers(0, 2, size=n)),
        n_classes=2,
        sample_ids=np.arange(n, dtype=np.int64),
    )


class TestPartitionVertical:
    def test_even_split(self):
        table = toy_table()
        ds = partition_vertical(table, ColumnRangePlan(((0, 2), (2, 4))))
        assert ds.n_parties == 2
        assert ds.party_features[0].shape == (8, 2)
        assert ds.party_features[1].shape == (8, 2)

    def test_round_trip(self):
        table = toy_table(d=7)
        plan = ColumnRangePlan(((0, 3), (3, 7)))
        ds = partition_vertical(table, plan)
        npt.assert_array_equal(reassemble_columns(ds, plan, 7), table.features)

    def test_image_halves(self):
        table = Table(
            features=Rng(2).normal(0, 1, (3, 28 * 28)),
            labels=np.zeros(3, dtype=np.int64),
            n_classes=2,
            sample_ids=np.arange(3, dtype=np.int64),
            image_shape=(28, 28),
        )
        plan = ImageHalfPlan(("left", "right"))
        ds = partition_vertical(table, plan)
        assert ds.party_features[0].shape == (3, 392)
        assert ds.party_features[1].shape == (3, 392)
        npt.assert_array_equal(
            reassemble_columns(ds, plan, 28 * 28, (28, 28)), table.features
        )

    def test_duplicate_column_rejected(self):
        with pytest.raises(PartitionPlanError, match="more than one"):
            partition_vertical(toy_table(), ColumnRangePlan(((0, 3), (2, 4))))

    def test_missing_column_rejected(self):
        with pytest.raises(PartitionPlanError, match="not assigned"):
            partition_vertical(toy_table(), ColumnRangePlan(((0, 1), (2, 4))))

    def test_bad_half_pair(self):
        table = toy_table()
        with pytest.raises(PartitionPlanError):
            ImageHalfPlan(("left", "top")).column_sets(4, (2, 2))

    def test_even_plan_helper(self):
        plan = even_column_plan(10, 3)
        sets = plan.column_sets(10)
        assert sum(s.size for s in sets) == 10


class TestSplitTable:
    def test_disjoint_and_deterministic(self):
        table = toy_table(n=20)
        a_train, a_test = split_table(table, 0.25, seed=9)
        b_train, b_test = split_table(table, 0.25, seed=9)
        npt.assert_array_equal(a_train.sample_ids, b_train.sample_ids)
        npt.assert_array_equal(a_test.sample_ids, b_test.sample_ids)
        assert set(a_train.sample_ids).isdisjoint(a_test.sample_ids)
        assert len(a_train.sample_ids) + len(a_test.sample_ids) == 20


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
