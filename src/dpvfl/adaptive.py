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
from statistics import NormalDist

import numpy as np

from .errors import ArgumentError, InsufficientRetainedError
from .numerics import Rng, as_matrix, pair_indices, pairwise_distances

logger = logging.getLogger(__name__)

SENSITIVITY_FLOOR_SCALE = 1e-6  # lower clamp for the estimate, relative to t
MIN_RETAINED_ROWS = 2  # fewer retained rows form no pair: no contrastive term
NEAR_PAIR_SCALE = 1e-7  # pairs closer than this times max |b| skip the matrix form


@dataclass(frozen=True)
class SensitivityEstimate:
    """Normal-quantile estimate of a batch's maximum pairwise disparity."""

    mu_h: float
    sigma_h: float
    delta_local: float  # clamped into (1e-6 * t, 2t]


def _clamp_estimate(value: float, t: float) -> float:
    floor = SENSITIVITY_FLOOR_SCALE * t
    # 2t is a certified upper bound post-clip, so clamping only tightens.
    return min(max(value, floor), 2.0 * t)


def estimate_local_sensitivity(batch, p2: float, t: float) -> SensitivityEstimate:
    """Fit N(mu, sigma^2) to the pairwise distances and return its p2 quantile.

    The quantile is ``mu + sigma * NormalDist().inv_cdf(p2)`` and is
    clamped into ``(1e-6 t, 2t]``; a degenerate batch (all rows identical)
    lands on the lower clamp.
    """
    d = pairwise_distances(batch)
    mu = float(d.mean())
    sigma = float(d.std(ddof=1)) if d.size > 1 else 0.0
    quantile = mu + sigma * NormalDist().inv_cdf(p2)
    return SensitivityEstimate(mu_h=mu, sigma_h=sigma, delta_local=_clamp_estimate(quantile, t))


def exact_diameter_estimate(batch, t: float) -> SensitivityEstimate:
    """Estimate from the brute-force batch diameter instead of the quantile."""
    if t <= 0:
        raise ArgumentError(f"clip threshold must be positive, got {t}")
    d = pairwise_distances(batch)
    return SensitivityEstimate(
        mu_h=float(d.mean()),
        sigma_h=float(d.std(ddof=1)) if d.size > 1 else 0.0,
        delta_local=_clamp_estimate(float(d.max()), t),
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
    # Products, not x**3 and x**4: numpy's pow of mixed-sign inputs leaves
    # its vectorized path and would cost most of this function.
    squared = centered**2
    m2 = float(np.mean(squared))
    scale = max(float(np.mean(d * d)), 1.0)
    if m2 <= 1e-14 * scale:
        return 0.0, np.zeros_like(d)
    cubed = squared * centered
    m3 = float(np.mean(cubed))
    m4 = float(np.mean(squared * squared))
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


def _pair_gradient(b: np.ndarray, j_idx, k_idx, d: np.ndarray, coef) -> np.ndarray:
    """Row gradient of ``sum_p coef_p * d_p`` over pairs ``p = (j, k)`` with
    ``d_p = ||b_j - b_k||``.

    Each pair adds ``coef_p / d_p * (b_j - b_k)`` to row j and its negative
    to row k. With the symmetric weights ``W[j, k] = W[k, j] = coef_p / d_p``
    (0 where ``d == 0``), row j receives ``sum_k W[j, k] * (b_j - b_k)``,
    which is ``W.sum(1)[:, None] * b - W @ b``: one n x n product in place
    of a scatter per pair.

    That product cancels for rows closer than about ``eps * |b|``, so a pair
    with ``0 < d <= NEAR_PAIR_SCALE * max |b|`` stays out of ``W`` and adds
    its exact unit difference instead. ``d`` underflows to 0 for
    differences around 1e-170, which add nothing, as in ``W``.
    """
    n = b.shape[0]
    coef = np.broadcast_to(coef, d.shape)
    near = NEAR_PAIR_SCALE * float(np.abs(b).max())
    weights = np.divide(coef, d, out=np.zeros_like(d), where=d > near)
    w = np.zeros((n, n))
    w[j_idx, k_idx] = weights
    w[k_idx, j_idx] = weights
    grad = w.sum(axis=1)[:, None] * b - w @ b
    close = (d > 0.0) & (d <= near)
    if close.any():
        j_near, k_near = j_idx[close], k_idx[close]
        units = (b[j_near] - b[k_near]) / d[close, None]
        units *= coef[close, None]
        np.add.at(grad, j_near, units)
        np.subtract.at(grad, k_near, units)
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
    d = pairwise_distances(b)
    value, d_grad = _distance_moment_penalty(d)
    j_idx, k_idx = pair_indices(n)
    return alpha * value, _pair_gradient(b, j_idx, k_idx, d, alpha * d_grad)


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
    degenerate: bool = False
    memberships: np.ndarray | None = None

    @property
    def n_retained(self) -> int:
        return int(np.count_nonzero(self.retained_mask))

    def filtered(self, threshold: float) -> "FuzzyAssignment":
        """New assignment retaining only rows with confidence >= threshold."""
        return replace(self, retained_mask=self.confidences >= threshold)


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


def _lifted_memberships(
    lifted: np.ndarray,
    coeffs: np.ndarray,
    points: np.ndarray,
    centers: np.ndarray,
    fuzzifier: float,
    near: float,
) -> np.ndarray:
    """Memberships from ``[q, 1, |q|^2] @ [-2c, |c|^2, 1]^T = |q - c|^2``.

    ``coeffs`` is the scratch ``[-2c, |c|^2, 1]``, its last column already 1.
    The product cancels for a point near a center, so when any squared
    distance is at most ``near`` the update takes the exact differences of
    ``_memberships`` instead.
    """
    dim = centers.shape[1]
    np.multiply(centers, -2.0, out=coeffs[:, :dim])
    coeffs[:, dim] = np.einsum("ij,ij->i", centers, centers)
    d2 = lifted @ coeffs.T
    if d2.min() <= near:
        return _memberships(points, centers, fuzzifier)
    inv = d2 ** (-1.0 / (fuzzifier - 1.0))  # numpy takes ** -1.0 as a reciprocal
    return inv / inv.sum(axis=1, keepdims=True)


def _unique_rows(p: np.ndarray) -> np.ndarray:
    """The rows of ``np.unique(p, axis=0)``, in its order.

    When the entries of column 0 are pairwise distinct, the rows are
    distinct too and that column alone orders them, so one argsort does.
    Any tie there (-0.0 and 0.0 count as one) falls back to a lexsort.
    """
    rows = p[np.argsort(p[:, 0])]
    if (rows[1:, 0] != rows[:-1, 0]).all():
        return rows
    rows = p[np.lexsort(p.T[::-1])]
    fresh = np.ones(rows.shape[0], dtype=bool)
    fresh[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return rows[fresh]


def fcm(
    points,
    n_clusters: int,
    fuzzifier: float = 2.0,
    max_iter: int = 100,
    tol: float = 1e-5,
    rng: Rng | None = None,
    init=None,
) -> tuple[FuzzyAssignment, np.ndarray]:
    """Fuzzy c-means fixed-point iteration.

    Memberships follow ``u_ij = 1 / sum_k (d_ij / d_ik)^(2/(m-1))``, centers
    are the membership^m-weighted means, and iteration stops when the
    largest center movement drops below ``tol``. Cluster ids are argmax
    memberships (ties -> lowest id) and confidence is the max membership.

    Centers start at ``init``, an ``n_clusters`` x l array in the batch's
    coordinates (a warm start from an earlier call's centers), or else at
    ``n_clusters`` distinct rows drawn from ``rng``. The draw also replaces
    an ``init`` with coincident rows, which would stay coincident. If the
    batch has fewer distinct rows than clusters the result is flagged
    degenerate, and its centers are drawn from all rows.

    The iteration runs on the batch ``q`` centered on its mean, with all
    squared distances and all center sums each taken from one matrix
    product; an update where a squared distance is at most
    ``1e-9 * max |q|^2``, as at the first one from drawn rows, uses exact
    differences.

    Beyond about 2^±500 squared distances overflow or underflow and the
    memberships become 0/0, so a batch whose largest entry lies there is
    clustered as its copy scaled by a power of two into [0.5, 1), with
    ``tol`` and ``init`` scaled alike, and its centers are scaled back. The
    scaling is exact.
    """
    p = as_matrix(points, "points")
    n = p.shape[0]
    if n_clusters < 2:
        raise ArgumentError(f"need at least 2 clusters, got {n_clusters}")
    if fuzzifier <= 1.0:
        raise ArgumentError(f"fuzzifier must exceed 1, got {fuzzifier}")
    if n < n_clusters:
        raise ArgumentError(f"{n} rows cannot form {n_clusters} clusters")
    if init is not None:
        init = as_matrix(init, "init")
        if init.shape != (n_clusters, p.shape[1]):
            raise ArgumentError(
                f"init must hold {n_clusters} centers of width {p.shape[1]}, "
                f"got shape {init.shape}"
            )
    if rng is None:
        rng = Rng(0)
    largest = float(np.abs(p).max())
    if largest > 2.0**500 or 0.0 < largest < 2.0**-500:
        unit = math.ldexp(1.0, math.frexp(largest)[1])
        assignment, centers = fcm(
            p / unit, n_clusters, fuzzifier, max_iter, tol / unit, rng,
            None if init is None else init / unit,
        )
        return assignment, centers * unit

    unique_rows = _unique_rows(p)
    degenerate = unique_rows.shape[0] < n_clusters
    if degenerate:
        picks = rng.choice(n, size=n_clusters, replace=False)
        centers = p[picks]
    elif init is not None and _unique_rows(init).shape[0] == n_clusters:
        centers = init
    else:
        picks = rng.choice(unique_rows.shape[0], size=n_clusters, replace=False)
        centers = unique_rows[picks]

    mean = p.mean(axis=0)
    q = p - mean
    centers = centers - mean
    dim = q.shape[1]
    sq_norms = np.einsum("ij,ij->i", q, q)
    # [q, 1] also gives every center's weighted sum and mass in one product.
    lifted = np.empty((n, dim + 2))
    lifted[:, :dim] = q
    lifted[:, dim] = 1.0
    lifted[:, dim + 1] = sq_norms
    weighted = lifted[:, :-1]
    near = 1e-9 * float(sq_norms.max())
    coeffs = np.ones((n_clusters, dim + 2))
    # Drawn centers are batch rows, so this first update takes the exact path.
    u = _lifted_memberships(lifted, coeffs, q, centers, fuzzifier, near)
    for _ in range(max_iter):
        w = u**fuzzifier
        sums = w.T @ weighted
        mass = sums[:, -1]
        alive = mass > 1e-300
        if alive.all():
            new_centers = sums[:, :-1] / mass[:, None]
        else:
            # A dead cluster keeps its center.
            new_centers = np.divide(sums[:, :-1], mass[:, None], out=centers.copy(),
                                    where=alive[:, None])
        step = new_centers - centers
        movement = math.sqrt(float(np.einsum("ij,ij->i", step, step).max()))
        centers = new_centers
        u = _lifted_memberships(lifted, coeffs, q, centers, fuzzifier, near)
        if movement < tol:
            break

    ids = np.argmax(u, axis=1)
    confidences = u[np.arange(n), ids]
    return (
        FuzzyAssignment(
            cluster_ids=ids,
            confidences=confidences,
            retained_mask=np.ones(n, dtype=bool),
            degenerate=degenerate,
            memberships=u,
        ),
        centers + mean,
    )


def purity(assignment: FuzzyAssignment, true_labels, use_mask: bool = False) -> float:
    """Fraction of counted samples whose cluster's majority class is theirs.

    Cluster ids are non-negative indices, as ``fcm`` assigns them.
    """
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
    # One count per (cluster, label) pair; a cluster id without rows counts 0.
    label_values, codes = np.unique(labels, return_inverse=True)
    n_labels = label_values.shape[0]
    n_ids = int(ids.max()) + 1
    counts = np.bincount(ids * n_labels + codes, minlength=n_ids * n_labels)
    counts = counts.reshape(n_ids, n_labels)
    return int(counts.max(axis=1).sum()) / ids.shape[0]


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
    if assignment.n_retained < MIN_RETAINED_ROWS:
        # protocol.train counts these rounds in one warning per training.
        logger.debug(
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
    return loss, _pair_gradient(b, j_idx, k_idx, d, -2.0 * beta / (n * n))
