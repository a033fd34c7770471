"""Utility-recovery adjustments applied before noise: rescaling and
distribution shaping.

Two independent techniques operate on a clipped embedding batch:

* **Adaptive rescaling** fits a normal distribution to the batch's pairwise
  distances, takes its ``p2`` upper quantile as an estimate of the batch's
  local output disparity, and multiplies every row by ``2t / estimate`` so
  the batch spread fills the noise budget calibrated for disparity ``2t``.
* **Distribution adjustment** clusters the gradients returned for the batch
  with fuzzy c-means, filters low-confidence assignments, and uses the
  surviving same/different-cluster pairs as weak labels for a contrastive
  term that enlarges inter-class embedding distances. A moment-matching
  penalty keeps the pairwise-distance sample close to normal so the quantile
  estimate above stays faithful.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArgumentError, InsufficientRetainedError
from .numerics import Rng, as_matrix, erf_inv, pair_indices, pairwise_distances

logger = logging.getLogger(__name__)

SENSITIVITY_FLOOR_SCALE = 1e-6  # lower clamp for the estimate, relative to t


@dataclass(frozen=True)
class SensitivityEstimate:
    """Normal-quantile estimate of a batch's maximum pairwise disparity."""

    mu_h: float
    sigma_h: float
    delta_local: float  # clamped into (1e-6 * t, 2t]
    p2: float


def _clamp_estimate(value: float, t: float) -> float:
    floor = SENSITIVITY_FLOOR_SCALE * t
    # 2t is a certified upper bound post-clip, so clamping only tightens.
    return min(max(value, floor), 2.0 * t)


def estimate_local_sensitivity(batch, p2: float, t: float) -> SensitivityEstimate:
    """Fit N(mu, sigma^2) to the pairwise distances and return its p2 quantile.

    The quantile is ``mu + sigma * sqrt(2) * erf_inv(2 p2 - 1)`` and is
    clamped into ``(1e-6 t, 2t]``; a degenerate batch (all rows identical)
    lands on the lower clamp.
    """
    if not 0.0 < p2 < 1.0:
        raise ArgumentError(f"p2 must lie in (0, 1), got {p2}")
    if t <= 0:
        raise ArgumentError(f"clip threshold must be positive, got {t}")
    d = pairwise_distances(batch)
    mu = float(d.mean())
    sigma = float(d.std(ddof=1)) if d.size > 1 else 0.0
    quantile = mu + sigma * math.sqrt(2.0) * erf_inv(2.0 * p2 - 1.0)
    return SensitivityEstimate(
        mu_h=mu, sigma_h=sigma, delta_local=_clamp_estimate(quantile, t), p2=p2
    )


def exact_diameter_estimate(batch, t: float) -> SensitivityEstimate:
    """Estimate from the brute-force batch diameter instead of the quantile."""
    if t <= 0:
        raise ArgumentError(f"clip threshold must be positive, got {t}")
    d = pairwise_distances(batch)
    return SensitivityEstimate(
        mu_h=float(d.mean()),
        sigma_h=float(d.std(ddof=1)) if d.size > 1 else 0.0,
        delta_local=_clamp_estimate(float(d.max()), t),
        p2=1.0,
    )


def rescale_factor(estimate: SensitivityEstimate, t: float) -> float:
    """The scalar 2t / delta_local every row gets multiplied by."""
    return 2.0 * t / estimate.delta_local


def rescale(batch, estimate: SensitivityEstimate, t: float) -> np.ndarray:
    """Multiply the whole batch by 2t / delta_local.

    A single scalar acts on every row, so all pairwise distances scale by
    exactly that factor and nearest/farthest pair identities are preserved.
    """
    return as_matrix(batch, "batch") * rescale_factor(estimate, t)


# ---------------------------------------------------------------------------
# Distance-distribution (normality) penalty
# ---------------------------------------------------------------------------

def _distance_moment_penalty(d: np.ndarray) -> tuple[float, np.ndarray]:
    """skew^2 + excess_kurtosis^2 of a distance sample, with d-space gradient.

    Zero exactly when the sample's third and fourth standardized moments
    match a normal distribution; smooth everywhere the sample is
    non-degenerate. A (near-)constant sample returns (0, zeros).
    """
    count = d.size
    centered = d - d.mean()
    # Each power is taken once: x**3 and x**4 of mixed-sign inputs run off
    # numpy's vectorized path and dominate the cost of this function.
    squared = centered**2
    m2 = float(np.mean(squared))
    scale = max(float(np.mean(d * d)), 1.0)
    if m2 <= 1e-14 * scale:
        return 0.0, np.zeros_like(d)
    cubed = centered**3
    m3 = float(np.mean(cubed))
    m4 = float(np.mean(centered**4))
    skew = m3 / m2**1.5
    ex_kurt = m4 / m2**2 - 3.0
    value = skew * skew + ex_kurt * ex_kurt

    dm2 = 2.0 * centered / count
    dm3 = 3.0 * (squared - m2) / count
    dm4 = 4.0 * (cubed - m3) / count
    dskew = dm3 / m2**1.5 - 1.5 * m3 / m2**2.5 * dm2
    dkurt = dm4 / m2**2 - 2.0 * m4 / m2**3 * dm2
    grad = 2.0 * skew * dskew + 2.0 * ex_kurt * dkurt
    return value, grad


def _unit_rows_in_place(diffs: np.ndarray, d: np.ndarray) -> None:
    """Divide each pair difference by its distance; rows with ``d == 0`` become 0.

    Zero rows are cleared explicitly: ``d`` underflows to 0 for differences
    around 1e-170 that are not 0 themselves.
    """
    zero = d == 0.0
    if np.any(zero):
        diffs[zero] = 0.0
        d = np.where(zero, 1.0, d)
    diffs /= d[:, None]


def _scatter_pairs(j_idx, k_idx, contrib: np.ndarray, n: int) -> np.ndarray:
    """Per row, add the contributions of pairs where it is ``j`` and subtract
    those where it is ``k``.

    ``np.bincount`` adds its weights in input order, so over ``[j, k]`` with
    weights ``[c, -c]`` each row sums the same terms in the same order as
    ``np.add.at(grad, j, c)`` followed by ``np.subtract.at(grad, k, c)``, and
    the result is bit-identical to that scatter.
    """
    rows = np.concatenate([j_idx, k_idx])
    count = contrib.shape[0]
    weights = np.empty(2 * count)
    grad = np.empty((n, contrib.shape[1]))
    for col in range(contrib.shape[1]):
        weights[:count] = contrib[:, col]
        np.negative(contrib[:, col], out=weights[count:])
        grad[:, col] = np.bincount(rows, weights=weights, minlength=n)
    return grad


def kl_surrogate_loss(batch, alpha: float) -> tuple[float, np.ndarray]:
    """Differentiable penalty driving the pairwise-distance sample toward
    a normal shape: ``alpha * (skew(d)^2 + excess_kurtosis(d)^2)``.

    The gradient is chained through the distance computation back to the
    embedding rows. Needs at least 4 rows for the kurtosis to make sense.
    """
    b = as_matrix(batch, "batch")
    n = b.shape[0]
    if n < 4:
        raise ArgumentError(f"the distance-shape penalty needs >= 4 rows, got {n}")
    if alpha == 0.0:
        return 0.0, np.zeros_like(b)
    j_idx, k_idx = pair_indices(n)
    diffs = b[j_idx]
    diffs -= b[k_idx]
    d = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    value, d_grad = _distance_moment_penalty(d)
    _unit_rows_in_place(diffs, d)
    diffs *= (alpha * d_grad)[:, None]
    return alpha * value, _scatter_pairs(j_idx, k_idx, diffs, n)


# ---------------------------------------------------------------------------
# Fuzzy c-means on returned gradients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FuzzyAssignment:
    """Per-sample cluster id and confidence, plus the confidence-filter mask.

    ``confidences`` are the maximum membership degree over the C clusters
    (always >= 1/C); ``retained_mask`` marks rows whose confidence reached
    the filter threshold. ``degenerate`` flags batches where distinct
    initial centers could not be found (e.g. all points identical).
    """

    cluster_ids: np.ndarray
    confidences: np.ndarray
    retained_mask: np.ndarray
    threshold: float = 0.0
    degenerate: bool = False
    memberships: np.ndarray | None = None

    @property
    def n_retained(self) -> int:
        return int(np.count_nonzero(self.retained_mask))

    def filtered(self, threshold: float) -> "FuzzyAssignment":
        """New assignment retaining only rows with confidence >= threshold."""
        if not 0.0 <= threshold <= 1.0:
            raise ArgumentError(f"confidence threshold must lie in [0, 1], got {threshold}")
        return replace(
            self, retained_mask=self.confidences >= threshold, threshold=threshold
        )


def _memberships(points: np.ndarray, centers: np.ndarray, fuzzifier: float) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    dist = np.sqrt(np.einsum("ick,ick->ic", diff, diff))
    exponent = -2.0 / (fuzzifier - 1.0)
    if dist.all():
        inv = dist**exponent
        return inv / inv.sum(axis=1, keepdims=True)
    # A point sitting on a center belongs there outright (split evenly if
    # several centers coincide with it).
    coincident = dist == 0.0
    hit = coincident.any(axis=1)
    u = np.empty_like(dist)
    rows = coincident[hit]
    u[hit] = rows / rows.sum(axis=1, keepdims=True)
    free = ~hit
    if np.any(free):
        inv = dist[free] ** exponent
        u[free] = inv / inv.sum(axis=1, keepdims=True)
    return u


def fcm(
    points,
    n_clusters: int,
    fuzzifier: float = 2.0,
    max_iter: int = 100,
    tol: float = 1e-5,
    rng: Rng | None = None,
) -> tuple[FuzzyAssignment, np.ndarray]:
    """Fuzzy c-means fixed-point iteration.

    Memberships follow ``u_ij = 1 / sum_k (d_ij / d_ik)^(2/(m-1))``, centers
    are the membership^m-weighted means, and iteration stops when the
    largest center movement drops below ``tol``. Cluster ids are argmax
    memberships (ties -> lowest id) and confidence is the max membership.
    Centers start at ``n_clusters`` distinct sampled rows; if the batch has
    fewer distinct rows than clusters the result is flagged degenerate.

    Beyond about 2^±500 squared distances overflow or underflow and the
    memberships become 0/0, so a batch whose largest entry lies there is
    clustered as its copy scaled by a power of two into [0.5, 1), with
    ``tol`` scaled alike, and its centers are scaled back. The scaling is
    exact.
    """
    p = as_matrix(points, "points")
    n = p.shape[0]
    if n_clusters < 2:
        raise ArgumentError(f"need at least 2 clusters, got {n_clusters}")
    if fuzzifier <= 1.0:
        raise ArgumentError(f"fuzzifier must exceed 1, got {fuzzifier}")
    if n < n_clusters:
        raise ArgumentError(f"{n} rows cannot form {n_clusters} clusters")
    if rng is None:
        rng = Rng(0)
    largest = float(np.abs(p).max())
    if largest > 2.0**500 or 0.0 < largest < 2.0**-500:
        unit = math.ldexp(1.0, math.frexp(largest)[1])
        assignment, centers = fcm(
            p / unit, n_clusters, fuzzifier, max_iter, tol / unit, rng
        )
        return assignment, centers * unit

    unique_rows = np.unique(p, axis=0)
    degenerate = unique_rows.shape[0] < n_clusters
    if degenerate:
        picks = rng.choice(n, size=n_clusters, replace=False)
        centers = p[picks].copy()
    else:
        picks = rng.choice(unique_rows.shape[0], size=n_clusters, replace=False)
        centers = unique_rows[picks].copy()

    u = _memberships(p, centers, fuzzifier)
    for _ in range(max_iter):
        w = u**fuzzifier
        mass = w.sum(axis=0)
        new_centers = centers.copy()
        alive = mass > 1e-300
        new_centers[alive] = (w[:, alive].T @ p) / mass[alive, None]
        movement = float(np.linalg.norm(new_centers - centers, axis=1).max())
        centers = new_centers
        u = _memberships(p, centers, fuzzifier)
        if movement < tol:
            break

    ids = np.argmax(u, axis=1)
    confidences = u[np.arange(n), ids]
    return (
        FuzzyAssignment(
            cluster_ids=ids,
            confidences=confidences,
            retained_mask=np.ones(n, dtype=bool),
            threshold=0.0,
            degenerate=degenerate,
            memberships=u,
        ),
        centers,
    )


def purity(assignment: FuzzyAssignment, true_labels, use_mask: bool = False) -> float:
    """Fraction of counted samples whose cluster's majority class is theirs."""
    labels = np.asarray(true_labels)
    if labels.shape[0] != assignment.cluster_ids.shape[0]:
        raise ArgumentError(
            f"{labels.shape[0]} labels for {assignment.cluster_ids.shape[0]} assignments"
        )
    if use_mask:
        keep = assignment.retained_mask
        if not np.any(keep):
            raise InsufficientRetainedError(
                "no samples retained after confidence filtering"
            )
        ids, labels = assignment.cluster_ids[keep], labels[keep]
    else:
        ids = assignment.cluster_ids
    total = 0
    for cluster in np.unique(ids):
        _, counts = np.unique(labels[ids == cluster], return_counts=True)
        total += int(counts.max())
    return total / ids.shape[0]


def contrastive_loss(batch, assignment: FuzzyAssignment, beta: float) -> tuple[float, np.ndarray]:
    """Negated inter-class spread over retained pairs, with embedding gradient.

    loss = -beta / n^2 * sum_{j,k retained} [different cluster] * ||h_j - h_k||

    The sign makes gradient descent *increase* distances between rows whose
    gradients were assigned to different clusters; same-cluster and
    filtered-out pairs contribute nothing. ``n`` is the full batch size.
    """
    b = as_matrix(batch, "batch")
    n = b.shape[0]
    if assignment.cluster_ids.shape[0] != n:
        raise ArgumentError(f"assignment covers {assignment.cluster_ids.shape[0]} rows, batch has {n}")
    if beta == 0.0:
        return 0.0, np.zeros_like(b)
    if assignment.n_retained < 2:
        logger.warning(
            "contrastive adjustment skipped: only %d retained rows", assignment.n_retained
        )
        return 0.0, np.zeros_like(b)
    # Filtering the batch's pairs keeps their (j, k) lexicographic order,
    # which is the order of the pairs of the retained rows alone.
    j_idx, k_idx = pair_indices(n)
    mask, ids = assignment.retained_mask, assignment.cluster_ids
    cross = mask[j_idx] & mask[k_idx] & (ids[j_idx] != ids[k_idx])
    if not np.any(cross):
        return 0.0, np.zeros_like(b)
    j_idx, k_idx = j_idx[cross], k_idx[cross]
    diffs = b[j_idx]
    diffs -= b[k_idx]
    d = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    # Each unordered pair appears twice in the double sum.
    loss = -beta / (n * n) * 2.0 * float(d.sum())
    _unit_rows_in_place(diffs, d)
    diffs *= -2.0 * beta / (n * n)
    return loss, _scatter_pairs(j_idx, k_idx, diffs, n)
