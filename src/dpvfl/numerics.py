"""Dense float64 helpers: deterministic RNG streams and special functions.

Everything downstream (clipping, noise calibration, quantile estimates,
clustering) is built on the primitives here. All arrays are 2-D row-major
float64; all randomness flows through :class:`Rng` so that multi-party runs
are reproducible regardless of scheduling.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

from .errors import ArgumentError

__all__ = [
    "Rng",
    "erf_inv",
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
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ArgumentError("seed must fit in an unsigned 64-bit integer")
        self.seed = seed
        self.path = tuple(_path_part(p) for p in path)
        sequence = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(sequence))

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


# Rational approximation of the standard normal quantile (lower-tail /
# central / upper-tail branches, max relative error about 1.15e-9), refined
# below by a single Newton step on erf. This keeps quantile values stable
# across platforms: |erf(erf_inv(p)) - p| stays under 1e-7 over (-1, 1),
# far inside the documented bound of the raw approximation alone.
_QA = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
       1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_QB = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
       6.680131188771972e+01, -1.328068155288572e+01)
_QC = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
       -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_QD = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
       3.754408661907416e+00)
_Q_LOW = 0.02425


def _norm_quantile_approx(q: float) -> float:
    """Rational approximation of the standard normal quantile on (0, 1)."""
    if q < _Q_LOW:
        r = math.sqrt(-2.0 * math.log(q))
        num = ((((_QC[0] * r + _QC[1]) * r + _QC[2]) * r + _QC[3]) * r + _QC[4]) * r + _QC[5]
        den = (((_QD[0] * r + _QD[1]) * r + _QD[2]) * r + _QD[3]) * r + 1.0
        return num / den
    if q > 1.0 - _Q_LOW:
        r = math.sqrt(-2.0 * math.log(1.0 - q))
        num = ((((_QC[0] * r + _QC[1]) * r + _QC[2]) * r + _QC[3]) * r + _QC[4]) * r + _QC[5]
        den = (((_QD[0] * r + _QD[1]) * r + _QD[2]) * r + _QD[3]) * r + 1.0
        return -(num / den)
    r = q - 0.5
    s = r * r
    num = ((((((_QA[0] * s + _QA[1]) * s + _QA[2]) * s + _QA[3]) * s + _QA[4]) * s + _QA[5])) * r
    den = ((((_QB[0] * s + _QB[1]) * s + _QB[2]) * s + _QB[3]) * s + _QB[4]) * s + 1.0
    return num / den


_HALF_SQRT_PI = math.sqrt(math.pi) / 2.0


def erf_inv(p: float) -> float:
    """Inverse of the error function on (-1, 1).

    Odd by construction (computed for ``|p|`` and sign-flipped), so
    ``erf_inv(-p) == -erf_inv(p)`` exactly.
    """
    p = float(p)
    if not math.isfinite(p) or not -1.0 < p < 1.0:
        raise ArgumentError(f"erf_inv requires |p| < 1, got {p}")
    if p == 0.0:
        return 0.0
    a = abs(p)
    x = _norm_quantile_approx((a + 1.0) / 2.0) / math.sqrt(2.0)
    if x < 6.0:
        # One Newton step on f(x) = erf(x) - a; f'(x) = 2/sqrt(pi) exp(-x^2).
        x -= (math.erf(x) - a) * _HALF_SQRT_PI * math.exp(x * x)
    return math.copysign(x, p)


def normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise, via the closed-form ``math.erf``."""
    return 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))


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


def pairwise_distances(batch) -> np.ndarray:
    """All n(n-1)/2 unordered-pair Euclidean distances, (j, k) with j < k.

    The output order matches ``numpy.triu_indices(n, k=1)``.
    """
    b = as_matrix(batch, "batch")
    n = b.shape[0]
    if n < 2:
        raise ArgumentError(f"pairwise distances need at least 2 rows, got {n}")
    j_idx, k_idx = pair_indices(n)
    diff = b[k_idx]
    diff -= b[j_idx]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))
