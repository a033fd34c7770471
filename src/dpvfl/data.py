"""Dataset loading, encoding, vertical partitioning, and synthetic blobs.

A loaded dataset becomes a :class:`Table` (dense float features + integer
labels). :func:`column_sets` decides which feature columns each passive
party holds and :func:`partition_splits` slices both splits by them,
while labels stay with the active party's store.
Feature encoding statistics (min-max ranges, category vocabularies, label
vocabulary) are always fitted on the training split only.
"""

from __future__ import annotations

import csv
import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import CATEGORICAL, NUMERIC, DatasetConfig
from .errors import ArgumentError, DataFormatError, PartitionPlanError
from .numerics import Rng


@dataclass
class Table:
    """Aligned dense features and labels for one split."""

    features: np.ndarray          # (n, d) float64
    labels: np.ndarray            # (n,) int64
    n_classes: int
    image_shape: tuple[int, int] | None = None

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ArgumentError("features and labels disagree on row count")

    @property
    def n_rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    def take(self, rows) -> "Table":
        """The given rows, in order, with the image shape kept."""
        return Table(
            features=self.features[rows],
            labels=self.labels[rows],
            n_classes=self.n_classes,
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
        )


@dataclass(frozen=True)
class DatasetSplits:
    train: VerticalDataset
    test: VerticalDataset


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def load_csv(path, schema) -> list[np.ndarray]:
    """Parse a headered CSV against the declared schema.

    Returns one array per schema column: float64 for a numeric column, the
    stripped cells for the others. Every schema column must be present. The
    first bad line in file order, a wrong cell count or a numeric cell that
    fails to parse, is reported with its line (and column).
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: no such file")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        for spec in schema:
            if spec.name not in header:
                raise DataFormatError(f"{path}: missing column {spec.name!r}")
        # Rows past a line of the wrong width are never reported.
        line_nos, rows, short = [], [], None
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                short = (line_no, len(row))
                break
            line_nos.append(line_no)
            rows.append(row)
    cells = np.char.strip(np.array(rows, dtype=str).reshape(len(rows), len(header)))
    columns = [cells[:, header.index(spec.name)] for spec in schema]
    numeric = [order for order, spec in enumerate(schema) if spec.kind == NUMERIC]
    try:
        for order in numeric:
            columns[order] = columns[order].astype(np.float64)
    except ValueError:
        # Name the first cell that fails: in file order, then schema order.
        for row in range(len(rows)):
            for order in numeric:
                cell = str(columns[order][row])
                try:
                    float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: line {line_nos[row]}: column {schema[order].name!r}: "
                        f"not numeric: {cell!r}"
                    ) from None
    if short is not None:
        raise DataFormatError(
            f"{path}: line {short[0]}: expected {len(header)} cells, got {short[1]}"
        )
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return columns


def _split_rows(n_rows: int, test_fraction: float, seed: int, tag: str):
    """Seeded shuffle of the row indices into (train rows, test rows).

    ``tag`` names the RNG stream, so each kind of split keeps its own.
    """
    order = Rng(seed).split(tag).permutation(n_rows)
    n_test = max(1, int(round(n_rows * test_fraction)))
    if n_test >= n_rows:
        raise ArgumentError("test fraction leaves no training rows")
    return order[n_test:], order[:n_test]


def encode_csv_dataset(columns, schema, test_fraction: float, seed: int) -> tuple[Table, Table]:
    """Seeded shuffle-split, then encode both splits with train-fitted statistics.

    Numeric columns are min-max scaled, categorical columns one-hot encoded
    over the sorted training vocabulary, and labels indexed into the sorted
    training labels.
    """
    train_rows, test_rows = _split_rows(columns[0].shape[0], test_fraction, seed, "csv-split")
    blocks = []
    for spec, column in zip(schema, columns):
        fit = column[train_rows]
        if spec.kind == NUMERIC:
            lo, hi = fit.min(), fit.max()
            scaled = (column - lo) / (hi - lo) if hi > lo else np.zeros_like(column)
            blocks.append(scaled[:, None])
        elif spec.kind == CATEGORICAL:
            # An unknown test-time category leaves the whole block zero.
            blocks.append((column[:, None] == np.unique(fit)).astype(np.float64))
        else:
            vocab = np.unique(fit)
            tested = column[test_rows]
            unseen = tested[~np.isin(tested, vocab)]
            if unseen.size:
                raise DataFormatError(f"label {str(unseen[0])!r} absent from the training split")
            labels = np.searchsorted(vocab, column).astype(np.int64)
    table = Table(features=np.hstack(blocks), labels=labels, n_classes=vocab.size)
    return table.take(train_rows), table.take(test_rows)


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

    Pixels are scaled to [0, 1]; images are flattened row-major.
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
        image_shape=(rows, cols),
    )


def split_table(table: Table, test_fraction: float, seed: int) -> tuple[Table, Table]:
    """Seeded disjoint train/test row split of an already-encoded table."""
    train_rows, test_rows = _split_rows(table.n_rows, test_fraction, seed, "table-split")
    return table.take(train_rows), table.take(test_rows)


# ---------------------------------------------------------------------------
# Vertical partitioning
# ---------------------------------------------------------------------------

def column_sets(ds: DatasetConfig, table: Table) -> list[np.ndarray]:
    """The feature columns each passive party holds, in party order.

    ``ds.halves`` gives each party one half of a row-major flattened image,
    in the order it names them; else ``ds.ranges`` gives each party a
    half-open [start, stop) range; else the columns are split into
    ``ds.parties`` contiguous near-even runs. The ranges must cover every
    column exactly once.
    """
    n_features = table.n_features
    if ds.halves:
        if table.image_shape is None:
            raise PartitionPlanError("image-half plan needs a table with an image shape")
        rows, cols = table.image_shape
        grid = np.arange(n_features, dtype=np.int64).reshape(rows, cols)
        pieces = {
            "left": grid[:, : cols // 2],
            "right": grid[:, cols // 2:],
            "top": grid[: rows // 2, :],
            "bottom": grid[rows // 2:, :],
        }
        return [pieces[h].ravel() for h in ds.halves]
    if ds.ranges:
        ranges = ds.ranges
    else:
        if ds.parties > n_features:
            raise PartitionPlanError(
                f"cannot split {n_features} columns across {ds.parties} parties"
            )
        edges = np.linspace(0, n_features, ds.parties + 1).round().astype(int)
        ranges = zip(edges[:-1], edges[1:])
    sets = []
    for start, stop in ranges:
        if not 0 <= start < stop <= n_features:
            raise PartitionPlanError(f"range [{start}, {stop}) invalid for {n_features} columns")
        sets.append(np.arange(start, stop, dtype=np.int64))
    claimed = np.bincount(np.concatenate(sets), minlength=n_features)
    for bad, rule in ((claimed > 1, "assigned to more than one party"),
                      (claimed == 0, "not assigned to any party")):
        if bad.any():
            raise PartitionPlanError(f"column {int(np.flatnonzero(bad)[0])} {rule}")
    return sets


def partition_splits(train: Table, test: Table, sets) -> DatasetSplits:
    """Slice both splits' feature columns across the parties by the same
    column sets; labels go only to the label store."""
    def partition(table: Table) -> VerticalDataset:
        return VerticalDataset(
            party_features=tuple(np.ascontiguousarray(table.features[:, cols]) for cols in sets),
            labels=table.labels.copy(),
            n_classes=table.n_classes,
        )

    return DatasetSplits(train=partition(train), test=partition(test))


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
    table = Table(features=features, labels=labels, n_classes=ds.classes)
    return split_table(table, ds.test_fraction, seed)
