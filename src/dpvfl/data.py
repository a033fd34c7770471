"""Dataset loading, encoding, vertical partitioning, and synthetic blobs.

A loaded dataset becomes a :class:`Table` (dense float features + integer
labels + alignment ids). Vertical partitioning slices feature columns
across passive parties while labels stay with the active party's store.
Feature encoding statistics (min-max ranges, category vocabularies, label
vocabulary) are always fitted on the training split only.
"""

from __future__ import annotations

import csv
import gzip
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import CATEGORICAL, LABEL, NUMERIC, ColumnSpec, DatasetConfig
from .errors import ArgumentError, DataFormatError, PartitionPlanError
from .numerics import Rng


@dataclass
class Table:
    """Aligned dense features and labels for one split."""

    features: np.ndarray          # (n, d) float64
    labels: np.ndarray            # (n,) int64
    n_classes: int
    sample_ids: np.ndarray        # (n,) int64 alignment ids
    feature_names: tuple[str, ...] | None = None
    image_shape: tuple[int, int] | None = None

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ArgumentError("features and labels disagree on row count")
        if self.sample_ids.shape[0] != self.labels.shape[0]:
            raise ArgumentError("sample ids and labels disagree on row count")

    @property
    def n_rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    def take(self, rows) -> "Table":
        """The given rows, in order, with the column metadata kept."""
        return Table(
            features=self.features[rows],
            labels=self.labels[rows],
            n_classes=self.n_classes,
            sample_ids=self.sample_ids[rows],
            feature_names=self.feature_names,
            image_shape=self.image_shape,
        )

    def head(self, limit: int | None) -> "Table":
        """The first ``limit`` rows; the table itself when it is no longer."""
        if limit is None or self.n_rows <= limit:
            return self
        return self.take(np.arange(limit))


@dataclass
class VerticalDataset:
    """One split of a vertically partitioned dataset.

    Row j of every party matrix originates from the same underlying sample;
    labels belong to the active party only.
    """

    party_features: tuple[np.ndarray, ...]
    labels: np.ndarray
    n_classes: int
    sample_ids: np.ndarray

    def __post_init__(self):
        n = self.labels.shape[0]
        for i, feats in enumerate(self.party_features):
            if feats.shape[0] != n:
                raise ArgumentError(f"party {i} has {feats.shape[0]} rows, labels have {n}")

    @property
    def n_rows(self) -> int:
        return int(self.labels.shape[0])

    @property
    def n_parties(self) -> int:
        return len(self.party_features)

    def take(self, rows) -> "VerticalDataset":
        """The given rows of every party, in order."""
        return VerticalDataset(
            party_features=tuple(f[rows] for f in self.party_features),
            labels=self.labels[rows],
            n_classes=self.n_classes,
            sample_ids=self.sample_ids[rows],
        )


@dataclass(frozen=True)
class DatasetSplits:
    train: VerticalDataset
    test: VerticalDataset


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

@dataclass
class RawColumns:
    """Parsed but unencoded CSV content, column-major."""

    schema: tuple[ColumnSpec, ...]
    numeric: dict[str, np.ndarray]
    categorical: dict[str, list[str]]
    labels: list[str]
    n_rows: int


def load_csv(path, schema) -> RawColumns:
    """Parse a headered CSV against the declared schema.

    Every schema column must be present; exactly one column must be the
    label. Numeric cells that fail to parse report their line and column.
    """
    specs = tuple(schema)
    label_cols = [s for s in specs if s.kind == LABEL]
    if len(label_cols) != 1:
        raise ArgumentError(f"schema must declare exactly one label column, got {len(label_cols)}")
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: no such file")
    numeric: dict[str, list[float]] = {s.name: [] for s in specs if s.kind == NUMERIC}
    categorical: dict[str, list[str]] = {s.name: [] for s in specs if s.kind == CATEGORICAL}
    labels: list[str] = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        positions = {}
        for spec in specs:
            if spec.name not in header:
                raise DataFormatError(f"{path}: missing column {spec.name!r}")
            positions[spec.name] = header.index(spec.name)
        n_rows = 0
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}: line {line_no}: expected {len(header)} cells, got {len(row)}"
                )
            for spec in specs:
                cell = row[positions[spec.name]].strip()
                if spec.kind == NUMERIC:
                    try:
                        numeric[spec.name].append(float(cell))
                    except ValueError:
                        raise DataFormatError(
                            f"{path}: line {line_no}: column {spec.name!r}: "
                            f"not numeric: {cell!r}"
                        ) from None
                elif spec.kind == CATEGORICAL:
                    categorical[spec.name].append(cell)
                else:
                    labels.append(cell)
            n_rows += 1
    if n_rows == 0:
        raise DataFormatError(f"{path}: no data rows")
    return RawColumns(
        schema=specs,
        numeric={k: np.asarray(v, dtype=np.float64) for k, v in numeric.items()},
        categorical=categorical,
        labels=labels,
        n_rows=n_rows,
    )


@dataclass
class FeatureEncoder:
    """Train-split-fitted encoder: min-max scaling plus frozen one-hot vocabularies."""

    schema: tuple[ColumnSpec, ...]
    numeric_ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    vocabularies: dict[str, tuple[str, ...]] = field(default_factory=dict)
    label_vocab: tuple[str, ...] = ()

    def fit(self, raw: RawColumns, fit_rows: np.ndarray) -> "FeatureEncoder":
        for spec in self.schema:
            if spec.kind == NUMERIC:
                col = raw.numeric[spec.name][fit_rows]
                self.numeric_ranges[spec.name] = (float(col.min()), float(col.max()))
            elif spec.kind == CATEGORICAL:
                values = [raw.categorical[spec.name][i] for i in fit_rows]
                self.vocabularies[spec.name] = tuple(sorted(set(values)))
        self.label_vocab = tuple(sorted({raw.labels[i] for i in fit_rows}))
        return self

    def transform(self, raw: RawColumns, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
        blocks, names = [], []
        for spec in self.schema:
            if spec.kind == NUMERIC:
                lo, hi = self.numeric_ranges[spec.name]
                col = raw.numeric[spec.name][rows]
                if hi > lo:
                    scaled = (col - lo) / (hi - lo)
                else:
                    scaled = np.zeros_like(col)
                blocks.append(scaled[:, None])
                names.append(spec.name)
            elif spec.kind == CATEGORICAL:
                vocab = self.vocabularies[spec.name]
                block = np.zeros((rows.size, len(vocab)))
                index = {v: i for i, v in enumerate(vocab)}
                for out_row, i in enumerate(rows):
                    # Unknown test-time category leaves the whole block zero.
                    slot = index.get(raw.categorical[spec.name][i])
                    if slot is not None:
                        block[out_row, slot] = 1.0
                blocks.append(block)
                names.extend(f"{spec.name}={v}" for v in vocab)
        label_index = {v: i for i, v in enumerate(self.label_vocab)}
        labels = np.empty(rows.size, dtype=np.int64)
        for out_row, i in enumerate(rows):
            value = raw.labels[i]
            if value not in label_index:
                raise DataFormatError(f"label {value!r} absent from the training split")
            labels[out_row] = label_index[value]
        return np.hstack(blocks), labels, tuple(names)


def _split_rows(n_rows: int, test_fraction: float, seed: int, tag: str):
    """Seeded shuffle of the row indices into (train rows, test rows).

    ``tag`` names the RNG stream, so each kind of split keeps its own.
    """
    order = Rng(seed).split(tag).permutation(n_rows)
    n_test = max(1, int(round(n_rows * test_fraction)))
    if n_test >= n_rows:
        raise ArgumentError("test fraction leaves no training rows")
    return order[n_test:], order[:n_test]


def encode_csv_dataset(raw: RawColumns, test_fraction: float, seed: int) -> tuple[Table, Table]:
    """Seeded shuffle-split, then encode both splits with train-fitted statistics."""
    train_rows, test_rows = _split_rows(raw.n_rows, test_fraction, seed, "csv-split")
    encoder = FeatureEncoder(schema=raw.schema).fit(raw, train_rows)
    tables = []
    for rows in (train_rows, test_rows):
        features, labels, names = encoder.transform(raw, rows)
        tables.append(Table(
            features=features,
            labels=labels,
            n_classes=len(encoder.label_vocab),
            sample_ids=np.asarray(rows, dtype=np.int64),
            feature_names=names,
        ))
    return tables[0], tables[1]


# ---------------------------------------------------------------------------
# IDX ingestion
# ---------------------------------------------------------------------------

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_idx_bytes(path) -> bytes:
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: no such file")
    if path.suffix == ".gz":
        with gzip.open(path, "rb") as handle:
            return handle.read()
    return path.read_bytes()


def load_idx(images_path, labels_path) -> Table:
    """Parse big-endian IDX image/label files into a flattened float table.

    Pixels are scaled to [0, 1]; images are flattened row-major. Alignment
    ids are the record positions.
    """
    img = _read_idx_bytes(images_path)
    lab = _read_idx_bytes(labels_path)
    if len(img) < 16:
        raise DataFormatError(f"{images_path}: truncated header")
    magic, count, rows, cols = struct.unpack(">IIII", img[:16])
    if magic != _IDX_IMAGES_MAGIC:
        raise DataFormatError(f"{images_path}: unsupported magic 0x{magic:08x}")
    expected = count * rows * cols
    payload = img[16:]
    if len(payload) != expected:
        raise DataFormatError(
            f"{images_path}: payload holds {len(payload)} bytes, expected {expected}"
        )
    if len(lab) < 8:
        raise DataFormatError(f"{labels_path}: truncated header")
    lmagic, lcount = struct.unpack(">II", lab[:8])
    if lmagic != _IDX_LABELS_MAGIC:
        raise DataFormatError(f"{labels_path}: unsupported magic 0x{lmagic:08x}")
    if len(lab) - 8 != lcount:
        raise DataFormatError(
            f"{labels_path}: payload holds {len(lab) - 8} labels, expected {lcount}"
        )
    if count != lcount:
        raise DataFormatError(f"image count {count} does not match label count {lcount}")
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    labels = np.frombuffer(lab[8:], dtype=np.uint8).astype(np.int64)
    return Table(
        features=pixels.reshape(count, rows * cols),
        labels=labels,
        n_classes=int(labels.max()) + 1 if count else 0,
        sample_ids=np.arange(count, dtype=np.int64),
        image_shape=(rows, cols),
    )


def split_table(table: Table, test_fraction: float, seed: int) -> tuple[Table, Table]:
    """Seeded disjoint train/test row split of an already-encoded table."""
    train_rows, test_rows = _split_rows(table.n_rows, test_fraction, seed, "table-split")
    return table.take(train_rows), table.take(test_rows)


# ---------------------------------------------------------------------------
# Vertical partitioning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnRangePlan:
    """Half-open [start, stop) column ranges, one per passive party."""

    ranges: tuple[tuple[int, int], ...]

    def column_sets(self, n_features: int, image_shape=None) -> list[np.ndarray]:
        claimed = np.zeros(n_features, dtype=np.int64)
        sets = []
        for start, stop in self.ranges:
            if not 0 <= start < stop <= n_features:
                raise PartitionPlanError(
                    f"range [{start}, {stop}) invalid for {n_features} columns"
                )
            claimed[start:stop] += 1
            sets.append(np.arange(start, stop, dtype=np.int64))
        if np.any(claimed > 1):
            dup = int(np.flatnonzero(claimed > 1)[0])
            raise PartitionPlanError(f"column {dup} assigned to more than one party")
        if np.any(claimed == 0):
            missing = int(np.flatnonzero(claimed == 0)[0])
            raise PartitionPlanError(f"column {missing} not assigned to any party")
        return sets


@dataclass(frozen=True)
class ImageHalfPlan:
    """Give each party one half of a row-major flattened image, in the
    order ``halves`` names them (``left``/``right`` or ``top``/``bottom``)."""

    halves: tuple[str, str]

    def column_sets(self, n_features: int, image_shape) -> list[np.ndarray]:
        if image_shape is None:
            raise PartitionPlanError("image-half plan needs a table with an image shape")
        rows, cols = image_shape
        if rows * cols != n_features:
            raise PartitionPlanError(
                f"image shape {image_shape} does not explain {n_features} columns"
            )
        grid = np.arange(n_features, dtype=np.int64).reshape(rows, cols)
        pieces = {
            "left": grid[:, : cols // 2],
            "right": grid[:, cols // 2:],
            "top": grid[: rows // 2, :],
            "bottom": grid[rows // 2:, :],
        }
        return [pieces[h].ravel() for h in self.halves]


def even_column_plan(n_features: int, parties: int) -> ColumnRangePlan:
    """Contiguous near-even split of the feature columns."""
    if parties < 1 or parties > n_features:
        raise PartitionPlanError(f"cannot split {n_features} columns across {parties} parties")
    edges = np.linspace(0, n_features, parties + 1).round().astype(int)
    return ColumnRangePlan(tuple((int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])))


def partition_vertical(table: Table, plan) -> VerticalDataset:
    """Slice feature columns across parties; labels go only to the label store."""
    sets = plan.column_sets(table.n_features, table.image_shape)
    return VerticalDataset(
        party_features=tuple(np.ascontiguousarray(table.features[:, cols]) for cols in sets),
        labels=table.labels.copy(),
        n_classes=table.n_classes,
        sample_ids=table.sample_ids.copy(),
    )


def partition_splits(train: Table, test: Table, plan) -> DatasetSplits:
    """Partition both splits by the same plan."""
    return DatasetSplits(
        train=partition_vertical(train, plan),
        test=partition_vertical(test, plan),
    )


# ---------------------------------------------------------------------------
# Synthetic blobs
# ---------------------------------------------------------------------------

def make_synthetic(ds: DatasetConfig, seed: int) -> tuple[Table, Table]:
    """Seeded isotropic Gaussian blobs, one basis-vector mean per class, split
    into (train, test) tables by ``ds.test_fraction``."""
    rng = Rng(seed).split("synthetic")
    n = ds.classes * ds.per_class
    features = rng.normal(0.0, 1.0, (n, ds.dim)) * ds.spread
    labels = np.repeat(np.arange(ds.classes, dtype=np.int64), ds.per_class)
    features[np.arange(n), labels] += 1.0
    table = Table(
        features=features,
        labels=labels,
        n_classes=ds.classes,
        sample_ids=np.arange(n, dtype=np.int64),
    )
    return split_table(table, ds.test_fraction, seed)
