"""Norm clipping, Gaussian noise calibration, and privacy accounting.

The release mechanism for a passive party is: clip each embedding row to
l2 norm at most ``t`` (so any two rows of the released function differ by
at most ``2t``), then add i.i.d. per-coordinate normal noise with standard
deviation ``sigma * 2t``. ``calibrate_sigma`` returns the minimal noise
multiplier ``sqrt(2 ln(1.25/delta)) / epsilon`` for a budget with
``epsilon in (0, 1)``; callers may only increase it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .numerics import Rng, as_matrix, normal_cdf

logger = logging.getLogger(__name__)

# The estimated sensitivity of a clipped batch is exactly twice the clip
# threshold: two rows inside the t-ball are at most 2t apart.
SENSITIVITY_FACTOR = 2.0


def _classic_sigma(epsilon: float, delta: float) -> float:
    if not 0.0 < delta < 1.0:
        raise ArgumentError(f"delta must lie in (0, 1), got {delta}")
    return math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def calibrate_sigma(epsilon: float, delta: float) -> float:
    """Minimal compliant noise multiplier for an (epsilon, delta) budget.

    Valid only for ``0 < epsilon < 1`` (the domain of the closed-form
    Gaussian-mechanism calibration); larger budgets require the explicit
    escape hatch on :meth:`PrivacyParams.from_budget`.
    """
    if not 0.0 < epsilon < 1.0:
        raise ArgumentError(f"epsilon must lie in (0, 1), got {epsilon}")
    return _classic_sigma(epsilon, delta)


@dataclass(frozen=True)
class PrivacyParams:
    """The Gaussian mechanism's settings: the (epsilon, delta) budget, the
    clip threshold ``t``, ``sigma``, the calibrated noise multiplier (at
    least the minimal compliant value), and ``noise_sigma``, the multiplier
    the noise uses instead when set (the ``privacy.sigma_override`` testing
    hook; 0 turns the noise off).
    """

    epsilon: float
    delta: float
    clip_threshold: float
    sigma: float = 0.0
    noise_sigma: float | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ArgumentError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ArgumentError(f"delta must lie in (0, 1), got {self.delta}")
        if self.clip_threshold <= 0:
            raise ArgumentError(f"clip threshold must be positive, got {self.clip_threshold}")
        minimal = _classic_sigma(self.epsilon, self.delta)
        if self.sigma < minimal - 1e-12:
            raise ArgumentError(
                f"sigma={self.sigma} below the minimal compliant value {minimal:.6f}"
            )
        if self.noise_sigma is not None and self.noise_sigma < 0:
            raise ArgumentError(f"noise sigma must be non-negative, got {self.noise_sigma}")

    @classmethod
    def from_budget(
        cls,
        epsilon: float,
        delta: float,
        clip_threshold: float,
        sigma: float | None = None,
        allow_large_epsilon: bool = False,
    ) -> "PrivacyParams":
        """Build a record with sigma defaulted to the minimal compliant value.

        A ``sigma`` below that value is refused by the record's own check.
        """
        if epsilon >= 1.0:
            if not allow_large_epsilon:
                raise ArgumentError(
                    f"epsilon={epsilon} outside (0, 1); pass allow_large_epsilon=True "
                    "to extend the calibration formula beyond its stated domain"
                )
            logger.warning(
                "epsilon=%s is outside the calibrated domain (0, 1); "
                "extending the noise formula anyway", epsilon,
            )
            minimal = _classic_sigma(epsilon, delta)
        else:
            minimal = calibrate_sigma(epsilon, delta)
        return cls(
            epsilon=float(epsilon),
            delta=float(delta),
            clip_threshold=float(clip_threshold),
            sigma=minimal if sigma is None else float(sigma),
        )

    @property
    def noise_std(self) -> float:
        """Per-coordinate noise standard deviation sigma * 2t, at ``noise_sigma``
        when set."""
        multiplier = self.sigma if self.noise_sigma is None else self.noise_sigma
        return multiplier * SENSITIVITY_FACTOR * self.clip_threshold


def _row_norms(b: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(b, axis=1)`` for real ``b``: the same reduction,
    without that function's dispatch."""
    return np.sqrt(np.add.reduce(b * b, axis=1))


def clip_norm(batch, t: float) -> np.ndarray:
    """Scale each row to l2 norm at most ``t``; rows inside the ball pass through.

    Direction is preserved; the zero row is a fixed point. A corrective
    rescale guards against the division rounding a norm a few ulps above
    ``t``, so the bound holds exactly in floating point.
    """
    b = as_matrix(batch, "batch")
    if t <= 0:
        raise ArgumentError(f"clip threshold must be positive, got {t}")
    norms = _row_norms(b)
    scale = np.ones_like(norms)
    over = norms > t
    scale[over] = t / norms[over]
    clipped = b * scale[:, None]
    for _ in range(8):
        norms = _row_norms(clipped)
        over = norms > t
        if not np.any(over):
            return clipped
        clipped[over] *= (t / norms[over])[:, None]
    raise ArgumentError("clip_norm failed to converge; inputs are pathological")


def clip_norm_vjp(batch, t: float, upstream) -> np.ndarray:
    """Pull an embedding-space gradient back through the clip map.

    Rows inside the ball pass the gradient through unchanged; clipped rows
    apply the exact Jacobian (t/||h||)(I - hh^T/||h||^2), which projects out
    the radial component.
    """
    b = as_matrix(batch, "batch")
    u = as_matrix(upstream, "upstream")
    if b.shape != u.shape:
        raise ArgumentError(f"shape mismatch: batch {b.shape} vs upstream {u.shape}")
    norms = _row_norms(b)
    out = u.copy()
    over = norms > t
    if np.any(over):
        h = b[over]
        n = norms[over][:, None]
        unit = h / n
        radial = np.einsum("ij,ij->i", u[over], unit)[:, None]
        out[over] = (t / n) * (u[over] - radial * unit)
    return out


def add_noise(batch, params: PrivacyParams, rng: Rng) -> np.ndarray:
    """Perturb every entry with i.i.d. normal noise of std ``params.noise_std``.

    A record with ``noise_sigma`` 0, the noise-off testing hook, returns a
    copy of the batch.
    """
    b = as_matrix(batch, "batch")
    std = params.noise_std
    if std == 0.0:
        return b.copy()
    if b.size == 0:
        raise ArgumentError(f"shape must be positive, got {b.shape}")
    return b + rng.normal(0.0, std, b.shape)


@dataclass(frozen=True)
class MechanismCheckReport:
    """Outcome of the analytic threshold-event check of the release mechanism."""

    epsilon: float
    delta: float
    sigma: float
    clip_threshold: float
    n_thresholds: int
    max_margin: float
    violation_count: int
    worst_threshold: float

    @property
    def passed(self) -> bool:
        return self.max_margin <= 1e-9


def mechanism_ratio_check(
    params: PrivacyParams,
    trials: int = 2001,
    *,
    sigma: float | None = None,
    t: float | None = None,
) -> MechanismCheckReport:
    """Verify P[A(x) in O] <= e^eps P[A(x') in O] + delta on threshold events.

    The harness places two scalar neighbors at the maximum post-clip
    disparity ``2t`` and sweeps events O = (-inf, o] over a grid of ``trials``
    thresholds, in both neighbor orders. Because the scalar Gaussian
    mechanism has a monotone likelihood ratio, half-lines are the tightest
    events, so a non-positive margin over this family certifies the privacy
    inequality; the margin is computed from the closed-form normal CDF
    (no sampling). ``sigma``/``t`` overrides exist so tests can probe broken
    or degenerate mechanisms without constructing invalid params.
    """
    if trials < 3:
        raise ArgumentError(f"trials must be at least 3, got {trials}")
    eps = params.epsilon
    delta = params.delta
    multiplier = params.sigma if sigma is None else float(sigma)
    threshold = params.clip_threshold if t is None else float(t)
    if threshold < 0 or multiplier < 0:
        raise ArgumentError("sigma and t overrides must be non-negative")

    x0, x1 = 0.0, SENSITIVITY_FACTOR * threshold
    noise_std = multiplier * SENSITIVITY_FACTOR * threshold
    span = max(noise_std * 12.0, abs(x1 - x0), 1.0)
    grid = np.linspace(min(x0, x1) - span, max(x0, x1) + span, int(trials))

    if noise_std == 0.0:
        p0 = (grid >= x0).astype(float)
        p1 = (grid >= x1).astype(float)
    else:
        p0 = normal_cdf((grid - x0) / noise_std)
        p1 = normal_cdf((grid - x1) / noise_std)

    factor = math.exp(eps)
    margins = np.concatenate([p0 - (factor * p1 + delta), p1 - (factor * p0 + delta)])
    max_margin = float(margins.max())
    worst = int(np.argmax(margins)) % grid.size
    return MechanismCheckReport(
        epsilon=eps,
        delta=delta,
        sigma=multiplier,
        clip_threshold=threshold,
        n_thresholds=int(trials),
        max_margin=max_margin,
        violation_count=int(np.count_nonzero(margins > 1e-9)),
        worst_threshold=float(grid[worst]),
    )
