"""Dense float64 helpers: deterministic RNG streams and special functions.

Everything downstream (clipping, noise calibration, clustering) is built
on the primitives here. All arrays are 2-D row-major float64; all
randomness flows through :class:`Rng` so that multi-party runs are
reproducible regardless of scheduling.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

from .errors import ArgumentError

__all__ = [
    "Rng",
    "normal_cdf",
    "pair_indices",
    "pairwise_distances",
    "as_matrix",
]


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ArgumentError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ArgumentError(f"{name} contains non-finite entries")
    return arr


def _path_part(part) -> int:
    """Map a stream-path component (int or short tag) to a uint32."""
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big")
    value = int(part)
    if value < 0:
        raise ArgumentError(f"rng path components must be non-negative, got {value}")
    return value & 0xFFFFFFFF


class Rng:
    """Deterministic random stream backed by the counter-based Philox generator.

    A stream is identified by ``(seed, path)``; :meth:`split` derives an
    independent child stream from a path extension (party id, round number,
    or a short string tag). Identical ``(seed, path)`` always reproduces the
    identical stream, so per-party streams stay stable no matter in which
    order the parties run.

    The generator is built on the first draw: many split streams are never
    drawn from, and building one costs more than the split itself.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ArgumentError("seed must fit in an unsigned 64-bit integer")
        self.seed = seed
        self.path = tuple(_path_part(p) for p in path)

    @functools.cached_property
    def _gen(self) -> np.random.Generator:
        sequence = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(sequence))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rng(seed={self.seed}, path={self.path})"

    def split(self, *path) -> "Rng":
        """Return an independent child stream; does not advance this stream."""
        return Rng(self.seed, self.path + tuple(path))

    # Thin pass-throughs; kept narrow so call sites document what they consume.
    def normal(self, mean: float, std: float, shape) -> np.ndarray:
        return self._gen.normal(loc=mean, scale=std, size=shape)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def uniform(self, low: float, high: float, size=None):
        return self._gen.uniform(low, high, size=size)


def normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise, via the closed-form ``math.erf``."""
    return 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))


# Most pair-difference entries a pairwise_distances block holds (256 KiB):
# all of a 64-row batch of 16 columns; a 240-row attack query takes 15
# blocks.
PAIR_BLOCK_ENTRIES = 1 << 15

# One entry: rounds and evaluation batches reuse a single batch size, and
# caching every size seen (ragged last batches, attack queries) only grows
# memory.
@functools.lru_cache(maxsize=1)
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``numpy.triu_indices(n, k=1)``, cached for the latest ``n``.

    The arrays are shared between callers and therefore read-only.
    """
    j_idx, k_idx = np.triu_indices(n, k=1)
    j_idx.flags.writeable = False
    k_idx.flags.writeable = False
    return j_idx, k_idx


# One entry: every batch of one width shares the blocks, so the process
# allocates them once and never faults their pages in again. Calls must
# not run concurrently in one process, since they write the same blocks.
@functools.lru_cache(maxsize=1)
def _pair_workspace(rows: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Two ``rows`` x ``width`` blocks, for the k rows and the j rows of a block's pairs."""
    return np.empty((rows, width)), np.empty((rows, width))


def pairwise_distances(batch) -> np.ndarray:
    """All n(n-1)/2 unordered-pair Euclidean distances, (j, k) with j < k.

    The output order matches ``numpy.triu_indices(n, k=1)``. The differences
    are formed for the most first rows at a time whose pairs hold at most
    ``PAIR_BLOCK_ENTRIES`` entries (or one row's pairs), with the same bits,
    in one workspace that every call of the same width reuses.
    """
    b = as_matrix(batch, "batch")
    n = b.shape[0]
    if n < 2:
        raise ArgumentError(f"pairwise distances need at least 2 rows, got {n}")
    j_idx, k_idx = pair_indices(n)
    before = np.arange(n) * np.arange(2 * n - 1, n - 1, -1) // 2  # pairs of first rows < j
    limit = max(PAIR_BLOCK_ENTRIES // max(b.shape[1], 1), n - 1)
    diffs, firsts = _pair_workspace(limit, b.shape[1])
    d, j = np.empty(k_idx.size), 0
    while j < n - 1:
        stop = min(int(np.searchsorted(before, before[j] + limit, "right")) - 1, n - 1)
        lo, hi = before[j], before[stop]
        # "clip" writes straight into out; the default "raise" buffers it.
        # The indices are in range by construction.
        diff = np.take(b, k_idx[lo:hi], axis=0, out=diffs[:hi - lo], mode="clip")
        diff -= np.take(b, j_idx[lo:hi], axis=0, out=firsts[:hi - lo], mode="clip")
        np.sqrt(np.einsum("ij,ij->i", diff, diff, out=d[lo:hi]), out=d[lo:hi])
        j = stop
    return d
