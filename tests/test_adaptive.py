import math

import numpy as np
import numpy.testing as npt
import pytest

from dpvfl import adaptive
from dpvfl.adaptive import (
    FuzzyAssignment,
    _distance_moment_penalty,
    _memberships,
    _unique_rows,
    contrastive_loss,
    estimate_local_sensitivity,
    exact_diameter_estimate,
    fcm,
    kl_surrogate_loss,
    purity,
    rescale,
    rescale_factor,
)
from dpvfl.errors import ArgumentError, ConfigError, InsufficientRetainedError
from dpvfl.mechanism import clip_norm
from dpvfl.config import AdaptiveSection, TrainingSection
from dpvfl.neural import DenseNet, sgd_step
from dpvfl.numerics import Rng, pairwise_distances

from conftest import central_difference, erf_inv_bisect, relative_error


# Reference kernels: the np.add.at / np.subtract.at scatter of per-pair unit
# differences, which the kernels' matrix-form gradients match to
# PAIR_TOLERANCE, and the moment penalty with x**3 and x**4 as pow, which the
# kernel's products match to MOMENT_TOLERANCE.

MOMENT_TOLERANCE = 1e-12
PAIR_TOLERANCE = 1e-15
# The matrix form rounds a pair's term to about eps * max|b| / d of itself,
# under 1e-9 for the "near_1e-6" rows; closer rows take exact differences.
# Relative to the largest reference gradient entry.
NEAR_GAP_TOLERANCE = 1e-8

def scatter_reference(n, j_idx, k_idx, contrib):
    grad = np.zeros((n, contrib.shape[1]))
    np.add.at(grad, j_idx, contrib)
    np.subtract.at(grad, k_idx, contrib)
    return grad


def unit_reference(diffs, d):
    unit = np.zeros_like(diffs)
    nonzero = d > 0.0
    unit[nonzero] = diffs[nonzero] / d[nonzero, None]
    return unit


def moment_penalty_reference(d):
    count = d.size
    centered = d - d.mean()
    m2 = float(np.mean(centered**2))
    scale = max(float(np.mean(d * d)), 1.0)
    if m2 <= 1e-14 * scale:
        return 0.0, np.zeros_like(d)
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    skew = m3 / m2**1.5
    ex_kurt = m4 / m2**2 - 3.0
    value = skew * skew + ex_kurt * ex_kurt
    dm2 = 2.0 * centered / count
    dm3 = 3.0 * (centered**2 - m2) / count
    dm4 = 4.0 * (centered**3 - m3) / count
    dskew = dm3 / m2**1.5 - 1.5 * m3 / m2**2.5 * dm2
    dkurt = dm4 / m2**2 - 2.0 * m4 / m2**3 * dm2
    grad = 2.0 * skew * dskew + 2.0 * ex_kurt * dkurt
    return value, grad


def kl_reference(batch, alpha):
    n = batch.shape[0]
    j_idx, k_idx = np.triu_indices(n, k=1)
    diffs = batch[j_idx] - batch[k_idx]
    d = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    value, d_grad = moment_penalty_reference(d)
    contrib = (alpha * d_grad)[:, None] * unit_reference(diffs, d)
    return alpha * value, scatter_reference(n, j_idx, k_idx, contrib)


def contrastive_reference(batch, assignment, beta):
    n = batch.shape[0]
    retained = np.flatnonzero(assignment.retained_mask)
    jj, kk = np.triu_indices(retained.size, k=1)
    j_idx, k_idx = retained[jj], retained[kk]
    cross = assignment.cluster_ids[j_idx] != assignment.cluster_ids[k_idx]
    j_idx, k_idx = j_idx[cross], k_idx[cross]
    diffs = batch[j_idx] - batch[k_idx]
    d = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    loss = -beta / (n * n) * 2.0 * float(d.sum())
    contrib = (-2.0 * beta / (n * n)) * unit_reference(diffs, d)
    return loss, scatter_reference(n, j_idx, k_idx, contrib)


# The memberships and fcm loop that fcm must match: a mask built before every
# memberships update, masked center updates, np.unique, no centering.

def memberships_reference(points, centers, fuzzifier):
    diff = points[:, None, :] - centers[None, :, :]
    dist = np.sqrt(np.einsum("ick,ick->ic", diff, diff))
    exponent = -2.0 / (fuzzifier - 1.0)
    coincident = dist == 0.0
    hit = coincident.any(axis=1)
    if not np.any(hit):
        inv = dist**exponent
        return inv / inv.sum(axis=1, keepdims=True)
    u = np.empty_like(dist)
    rows = coincident[hit]
    u[hit] = rows / rows.sum(axis=1, keepdims=True)
    free = ~hit
    if np.any(free):
        inv = dist[free] ** exponent
        u[free] = inv / inv.sum(axis=1, keepdims=True)
    return u


def purity_reference(ids, labels):
    """One np.unique count per cluster."""
    total = 0
    for cluster in np.unique(ids):
        _, counts = np.unique(labels[ids == cluster], return_counts=True)
        total += int(counts.max())
    return total / ids.shape[0]


def fcm_reference(p, n_clusters, rng, fuzzifier=2.0, max_iter=100, tol=1e-5):
    n = p.shape[0]
    unique_rows = np.unique(p, axis=0)
    degenerate = unique_rows.shape[0] < n_clusters
    if degenerate:
        centers = p[rng.choice(n, size=n_clusters, replace=False)].copy()
    else:
        picks = rng.choice(unique_rows.shape[0], size=n_clusters, replace=False)
        centers = unique_rows[picks].copy()
    u = memberships_reference(p, centers, fuzzifier)
    for _ in range(max_iter):
        w = u**fuzzifier
        mass = w.sum(axis=0)
        new_centers = centers.copy()
        alive = mass > 1e-300
        new_centers[alive] = (w[:, alive].T @ p) / mass[alive, None]
        movement = float(np.linalg.norm(new_centers - centers, axis=1).max())
        centers = new_centers
        u = memberships_reference(p, centers, fuzzifier)
        if movement < tol:
            break
    ids = np.argmax(u, axis=1)
    return ids, u[np.arange(n), ids], u, centers, degenerate


FCM_SIZES = [4, 60, 100]
# "duplicates" holds 3 distinct rows, so 4 clusters make it degenerate;
# "signed_zeros" has +0.0 and -0.0 entries in otherwise equal rows, which
# np.unique treats as duplicates.
FCM_CASES = ["plain", "duplicates", "signed_zeros"]
# fcm against fcm_reference: memberships, confidences and centers.
FCM_TOLERANCE = 1e-12


def fcm_objective(points, centers, memberships, fuzzifier):
    """The fuzzy within-cluster objective sum_ij u_ij^m ||x_i - c_j||^2."""
    diff = points[:, None, :] - centers[None, :, :]
    sq = np.einsum("ick,ick->ic", diff, diff)
    return float(np.sum(memberships**fuzzifier * sq))


def fcm_batch(n, case):
    rng = Rng(n).split("fcm", case)
    if case == "plain":
        return rng.normal(0, 1, (n, 6))
    if case == "duplicates":
        return rng.normal(0, 1, (3, 6))[np.arange(n) % 3]
    grid = np.asarray(rng.integers(-1, 2, size=(n, 3)), dtype=np.float64)
    flip = (grid == 0.0) & (np.asarray(rng.uniform(0, 1, size=(n, 3))) < 0.5)
    grid[flip] = -0.0
    return grid


KERNEL_SIZES = [4, 5, 60, 100]
# "duplicate" repeats a row, so one pair has d == 0; "underflow" puts two
# rows 1e-170 apart, so d underflows to 0 while their difference is not 0;
# "near_1e-6" and "near_1e-15" put two rows that far apart at unit scale, on
# either side of the kernels' near-pair guard.
KERNEL_CASES = ["plain", "duplicate", "underflow", "near_1e-6", "near_1e-15"]


def kernel_batch(n, case):
    batch = Rng(n).normal(0, 1, (n, 16))
    if case == "duplicate":
        batch[n // 2] = batch[1]
    elif case == "underflow":
        batch[1] = 0.0
        batch[n // 2] = 1e-170
    elif case.startswith("near_"):
        batch[1, 0] = 0.5
        batch[n // 2] = batch[1]
        batch[n // 2, 0] += float(case[len("near_"):])
    return batch


def gradient_tolerance(case, ref_grad, base):
    if case == "near_1e-6":
        return base + NEAR_GAP_TOLERANCE * float(np.abs(ref_grad).max())
    return base


def kernel_assignment(n):
    rng = Rng(n).split("assignment")
    ids = np.asarray(rng.integers(0, 2, size=n))
    mask = np.asarray(rng.uniform(0, 1, size=n)) < 0.7
    # The two rows kernel_batch brings together form a retained cross pair.
    ids[1], ids[n // 2] = 0, 1
    mask[1] = mask[n // 2] = True
    return FuzzyAssignment(cluster_ids=ids, confidences=np.ones(n), retained_mask=mask)


class TestEstimateLocalSensitivity:
    def test_three_point_line(self):
        # 1-D points {0, 1, 3} have pairwise distances {1, 2, 3}:
        # mu = 2, sample std = 1, and the 0.9987 normal quantile sits at
        # mu + ~3.01 sigma (bisection oracle below).
        batch = np.array([[0.0], [1.0], [3.0]])
        est = estimate_local_sensitivity(batch, p2=0.9987, t=3.0)
        assert abs(est.mu_h - 2.0) < 1e-12
        assert abs(est.sigma_h - 1.0) < 1e-12
        z = math.sqrt(2.0) * erf_inv_bisect(2 * 0.9987 - 1)
        assert abs(est.delta_local - (2.0 + z)) < 1e-9
        assert abs(est.delta_local - 5.0) < 0.05

    @pytest.mark.parametrize("p2", [0.5, 0.9, 0.99, 0.9987, 0.999999])
    def test_quantile_matches_bisection_oracle(self, p2):
        # Same batch as above (mu = 2, sigma = 1); 2t = 8 leaves every
        # quantile here unclamped.
        est = estimate_local_sensitivity(np.array([[0.0], [1.0], [3.0]]), p2=p2, t=4.0)
        z = math.sqrt(2.0) * erf_inv_bisect(2 * p2 - 1)
        assert abs(est.delta_local - (2.0 + z)) < 1e-9

    @pytest.mark.parametrize("p2", [0.0, 1.0, 1.5, float("nan")])
    def test_p2_domain_errors(self, p2):
        # The config decides p2's domain; the estimator receives parsed values.
        with pytest.raises(ConfigError, match=r"^adaptive\.p2 must lie in \(0, 1\), got "):
            AdaptiveSection(p2=p2)

    def test_degenerate_batch_clamps_to_floor(self):
        batch = np.ones((5, 3))
        est = estimate_local_sensitivity(batch, p2=0.9987, t=2.0)
        assert est.delta_local == 1e-6 * 2.0

    def test_quantile_covers_empirical_sample(self):
        rng = Rng(71)
        batch = clip_norm(rng.normal(0, 1, (64, 8)), 1.0)
        est = estimate_local_sensitivity(batch, p2=0.9987, t=1.0)
        d = pairwise_distances(batch)
        assert np.mean(d <= est.delta_local) >= 0.99

    def test_clamped_to_twice_threshold(self):
        batch = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]) * 5
        est = estimate_local_sensitivity(clip_norm(batch, 1.0), p2=0.999999, t=1.0)
        assert est.delta_local <= 2.0

    def test_needs_two_rows(self):
        with pytest.raises(ArgumentError):
            estimate_local_sensitivity(np.ones((1, 2)), 0.9987, 1.0)


class TestRescale:
    def test_factor_two(self):
        est = exact_diameter_estimate(np.array([[0.0, 0.0], [0.6, 0.8]]), 1.0)
        assert abs(est.delta_local - 1.0) < 1e-12
        out = rescale(np.array([[0.3, 0.4]]), est, 1.0)
        npt.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_factor_one_when_estimate_is_bound(self):
        batch = np.array([[1.0, 0.0], [-1.0, 0.0]])
        est = exact_diameter_estimate(batch, 1.0)  # diameter 2 = 2t
        npt.assert_array_equal(rescale(batch, est, 1.0), batch)

    def test_exact_diameter_lands_on_2t(self):
        rng = Rng(5)
        batch = clip_norm(rng.normal(0, 0.2, (32, 6)), 1.0)
        est = exact_diameter_estimate(batch, 1.0)
        out = rescale(batch, est, 1.0)
        assert abs(pairwise_distances(out).max() - 2.0) < 1e-9

    def test_distances_scale_uniformly_and_extremes_invariant(self):
        rng = Rng(6)
        batch = rng.normal(0, 1, (12, 4))
        est = estimate_local_sensitivity(batch, 0.9, 4.0)
        factor = rescale_factor(est, 4.0)
        before = pairwise_distances(batch)
        after = pairwise_distances(rescale(batch, est, 4.0))
        npt.assert_allclose(after, before * factor, rtol=1e-12)
        assert np.argmax(after) == np.argmax(before)
        assert np.argmin(after) == np.argmin(before)


class TestKlSurrogate:
    def test_symmetric_mesokurtic_sample_is_zero(self):
        # One point at b-a, four at b, one at b+a: third and fourth central
        # moments match a normal law exactly, so the penalty vanishes.
        a, b = 0.5, 2.0
        d = np.array([b - a, b, b, b, b, b + a])
        value, grad = _distance_moment_penalty(d)
        assert abs(value) < 1e-12
        assert np.all(np.isfinite(grad))

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    @pytest.mark.parametrize("case", KERNEL_CASES + ["constant"])
    def test_moment_penalty_bit_equal_to_reference(self, n, case):
        batch = np.ones((n, 16)) if case == "constant" else kernel_batch(n, case)
        # The kernel takes x**3 and x**4 as products, the reference as pow.
        d = pairwise_distances(batch)
        value, grad = _distance_moment_penalty(d)
        ref_value, ref_grad = moment_penalty_reference(d)
        assert abs(value - ref_value) <= MOMENT_TOLERANCE
        npt.assert_allclose(grad, ref_grad, rtol=0, atol=MOMENT_TOLERANCE)

    def test_gradient_matches_finite_differences(self):
        rng = Rng(9)
        batch = rng.normal(0, 1, (6, 3))
        alpha = 0.7

        def scalar(x):
            loss, _ = kl_surrogate_loss(x, alpha)
            return loss

        loss, grad = kl_surrogate_loss(batch, alpha)
        numeric = central_difference(scalar, batch)
        assert relative_error(grad, numeric) < 1e-4

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_bit_equal_to_scatter_reference(self, n, case):
        # Equal to the reference scatter up to the moment penalty's products
        # and the rounding of the matrix-form gradient.
        batch = kernel_batch(n, case)
        loss, grad = kl_surrogate_loss(batch, 0.7)
        ref_loss, ref_grad = kl_reference(batch, 0.7)
        assert abs(loss - ref_loss) <= MOMENT_TOLERANCE
        assert loss == 0.7 * _distance_moment_penalty(pairwise_distances(batch))[0]
        tolerance = gradient_tolerance(case, ref_grad, MOMENT_TOLERANCE)
        npt.assert_allclose(grad, ref_grad, rtol=0, atol=tolerance)
        assert np.all(np.isfinite(grad))

    def test_alpha_zero_short_circuits(self):
        batch = Rng(1).normal(0, 1, (5, 2))
        loss, grad = kl_surrogate_loss(batch, 0.0)
        assert loss == 0.0
        npt.assert_array_equal(grad, np.zeros_like(batch))

    def test_needs_four_rows(self):
        with pytest.raises(ArgumentError):
            kl_surrogate_loss(np.ones((3, 2)), 1.0)

    def test_gaussian_batch_has_small_penalty(self):
        # Distances of high-dimensional Gaussian rows are approximately
        # normal; the penalty should be small but not exactly zero.
        batch = Rng(33).normal(0, 1, (64, 16))
        loss, _ = kl_surrogate_loss(batch, 1.0)
        assert loss < 0.2


def exhaustive_best_two_partition(points):
    """Oracle: the 2-partition minimizing within-cluster sum of squared
    distances to cluster means, by enumeration."""
    n = len(points)
    best, best_cost = None, np.inf
    for mask_bits in range(1, 2 ** (n - 1)):
        mask = np.array([(mask_bits >> i) & 1 for i in range(n)], dtype=bool)
        cost = 0.0
        for side in (mask, ~mask):
            if side.any():
                group = points[side]
                cost += float(((group - group.mean(axis=0)) ** 2).sum())
        if cost < best_cost:
            best, best_cost = mask, cost
    return best


class TestFcm:
    def test_two_blobs_match_exhaustive_partition(self):
        points = np.array([[0.0], [0.1], [10.0], [10.1]])
        assignment, centers = fcm(points, 2, rng=Rng(0))
        ids = assignment.cluster_ids
        assert ids[0] == ids[1] and ids[2] == ids[3] and ids[0] != ids[2]
        assert np.all(assignment.confidences > 0.99)
        oracle_mask = exhaustive_best_two_partition(points)
        npt.assert_array_equal(ids == ids[0], oracle_mask == oracle_mask[0])

    def test_all_points_identical_degenerate(self):
        assignment, _ = fcm(np.ones((6, 2)), 3, rng=Rng(1))
        assert assignment.degenerate
        npt.assert_allclose(assignment.confidences, 1.0 / 3.0, atol=1e-12)

    def test_point_on_center_gets_full_membership(self):
        points = np.array([[0.0, 0.0], [4.0, 4.0], [8.0, 0.0]])
        assignment, centers = fcm(points, 3, rng=Rng(2))
        # With 3 clusters for 3 points the centers converge onto the points.
        assert np.all(assignment.confidences > 0.999)

    @pytest.mark.parametrize("on_center", [False, True])
    def test_memberships_bit_equal_to_reference(self, on_center):
        points = Rng(8).normal(0, 1, (30, 4))
        centers = points[[3, 10, 20]].copy() if on_center else Rng(9).normal(0, 1, (3, 4))
        diff = points[:, None, :] - centers[None, :, :]
        dist = np.sqrt(np.einsum("ick,ick->ic", diff, diff))
        hit = (dist == 0.0).any(axis=1)
        expected = np.empty_like(dist)
        expected[hit] = (dist[hit] == 0.0) / (dist[hit] == 0.0).sum(axis=1, keepdims=True)
        inv = dist[~hit] ** -2.0
        expected[~hit] = inv / inv.sum(axis=1, keepdims=True)

        u = _memberships(points, centers, 2.0)
        assert np.array_equal(u, expected)
        if on_center:
            # The points on a center take the coincident-center branch.
            assert np.array_equal(u[[3, 10, 20]], np.eye(3))

    @pytest.mark.parametrize("n", FCM_SIZES)
    @pytest.mark.parametrize("c", [2, 4])
    @pytest.mark.parametrize("case", FCM_CASES + ["on_center"])
    def test_memberships_bit_equal_to_pre_change(self, n, c, case):
        points = fcm_batch(n, "plain" if case == "on_center" else case)
        if case == "on_center":
            centers = points[:c].copy()
        else:
            centers = Rng(c).normal(0, 1, (c, points.shape[1]))
        u = _memberships(points, centers, 2.0)
        assert np.array_equal(u, memberships_reference(points, centers, 2.0))

    @pytest.mark.parametrize("n", FCM_SIZES)
    @pytest.mark.parametrize("c", [2, 4])
    @pytest.mark.parametrize("case", FCM_CASES)
    def test_fcm_bit_equal_to_pre_change(self, n, c, case):
        # The assignment is bit-equal to the reference loop; memberships and
        # centers, taken from matrix products on the centered batch, agree
        # to FCM_TOLERANCE. The initial centers are rows of the batch, so the
        # first memberships update always takes the exact path.
        points = fcm_batch(n, case)
        assignment, centers = fcm(points, c, rng=Rng(11))
        ids, confidences, u, ref_centers, degenerate = fcm_reference(points, c, Rng(11))
        assert np.array_equal(assignment.cluster_ids, ids)
        assert np.array_equal(assignment.filtered(0.8).retained_mask, confidences >= 0.8)
        assert assignment.degenerate == degenerate
        npt.assert_allclose(assignment.confidences, confidences, rtol=0, atol=FCM_TOLERANCE)
        npt.assert_allclose(assignment.memberships, u, rtol=0, atol=FCM_TOLERANCE)
        npt.assert_allclose(centers, ref_centers, rtol=0, atol=FCM_TOLERANCE)
        if case == "duplicates":
            assert assignment.degenerate == (c > 3)

    @pytest.mark.parametrize("n", FCM_SIZES)
    @pytest.mark.parametrize("case", FCM_CASES)
    def test_unique_rows_match_np_unique(self, n, case):
        points = fcm_batch(n, case)
        assert np.array_equal(_unique_rows(points), np.unique(points, axis=0))

    @pytest.mark.parametrize("case", ["distinct", "tied", "signed_zero", "duplicate_row"])
    def test_unique_rows_column_zero_ties(self, case):
        # Distinct column-0 entries take the argsort; any tie, -0.0 against
        # 0.0 included, takes the lexsort, which orders by the later columns.
        points = Rng(21).normal(0, 1, (30, 4))
        if case == "tied":
            points[[3, 9, 17], 0] = points[5, 0]
        elif case == "signed_zero":
            points[4, 0], points[11, 0] = -0.0, 0.0
            points[4, 1], points[11, 1] = 1.0, -1.0
        elif case == "duplicate_row":
            points[12] = points[2]
        assert np.array_equal(_unique_rows(points), np.unique(points, axis=0))

    def test_dead_cluster_keeps_its_center(self, monkeypatch):
        # Every center starts on a row that gives it mass, so no batch kills
        # a cluster by itself: the first memberships are replaced by ones in
        # which the last cluster holds nothing, for fcm and the reference.
        def starving(memberships):
            calls = []

            def first_starved(points, centers, fuzzifier):
                u = memberships(points, centers, fuzzifier)
                if not calls:
                    u[:, -1] = 0.0
                    u[u.sum(axis=1) == 0.0, :-1] = 1.0  # the rows on the last center
                    u /= u.sum(axis=1, keepdims=True)
                calls.append(1)
                return u
            return first_starved

        points = fcm_batch(60, "plain")
        monkeypatch.setattr(adaptive, "_memberships", starving(_memberships))
        monkeypatch.setitem(globals(), "memberships_reference",
                            starving(memberships_reference))
        assignment, centers = fcm(points, 3, rng=Rng(11))
        ids, confidences, u, ref_centers, _ = fcm_reference(points, 3, Rng(11))
        assert np.array_equal(assignment.cluster_ids, ids)
        assert np.array_equal(assignment.filtered(0.8).retained_mask, confidences >= 0.8)
        npt.assert_allclose(assignment.memberships, u, rtol=0, atol=FCM_TOLERANCE)
        npt.assert_allclose(centers, ref_centers, rtol=0, atol=FCM_TOLERANCE)

        # After one update the starved cluster still sits on its first center.
        monkeypatch.setattr(adaptive, "_memberships", starving(_memberships))
        _, one_step = fcm(points, 3, max_iter=1, rng=Rng(11))
        start = np.unique(points, axis=0)[Rng(11).choice(60, size=3, replace=False)]
        mean = points.mean(axis=0)
        assert np.array_equal(one_step[-1], (start[-1] - mean) + mean)
        assert not np.array_equal(one_step[:-1], (start[:-1] - mean) + mean)

    def test_lone_outlier_matches_reference(self, monkeypatch):
        # One far row pulls a center to within 1e-9 max|q|^2 of itself, so
        # updates after the first one also take the exact path.
        points = Rng(12).normal(0, 1, (20, 4))
        points[7] = 100.0
        exact_calls = []

        def counting(*args):
            exact_calls.append(1)
            return _memberships(*args)

        monkeypatch.setattr(adaptive, "_memberships", counting)
        assignment, _ = fcm(points, 2, rng=Rng(13))
        ids, confidences, u, _, degenerate = fcm_reference(points, 2, Rng(13))
        assert len(exact_calls) > 1
        assert np.array_equal(assignment.cluster_ids, ids)
        assert np.array_equal(assignment.filtered(0.8).retained_mask, confidences >= 0.8)
        assert assignment.degenerate == degenerate
        npt.assert_allclose(assignment.memberships, u, rtol=0, atol=FCM_TOLERANCE)

    def test_offset_batch_matches_reference(self):
        # Two blobs of spread 1e-3 around 1e4: the uncentered reference loses
        # about 9 digits there, so memberships agree to 1e-6 only.
        blobs, _ = gradient_blobs(14, n_per=30, separation=6.0)
        points = 1e4 + 1e-3 * blobs
        assignment, _ = fcm(points, 2, rng=Rng(15))
        ids, confidences, u, _, _ = fcm_reference(points, 2, Rng(15))
        assert np.array_equal(assignment.cluster_ids, ids)
        assert np.array_equal(assignment.filtered(0.8).retained_mask, confidences >= 0.8)
        npt.assert_allclose(assignment.memberships, u, rtol=0, atol=1e-6)

    def test_memberships_row_sum_one(self):
        points = Rng(3).normal(0, 1, (40, 5))
        assignment, _ = fcm(points, 4, rng=Rng(4))
        npt.assert_allclose(assignment.memberships.sum(axis=1), 1.0, atol=1e-9)

    def test_objective_non_increasing(self):
        # fcm(max_iter=k) stops after the k-th update of the same run.
        points = Rng(5).normal(0, 1, (60, 4))
        trace = []
        for k in range(1, 11):
            assignment, centers = fcm(points, 3, max_iter=k, rng=Rng(6))
            trace.append(fcm_objective(points, centers, assignment.memberships, 2.0))
        assert len(set(trace)) >= 2
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_huge_batch_memberships_stay_finite(self):
        # Squared distances of entries near 1e170 overflow to inf; unscaled,
        # the memberships of every row were 0/0.
        points = Rng(1).normal(0, 1, (20, 4))
        assignment, centers = fcm(points * 1e170, 2)
        assert np.all(np.isfinite(assignment.memberships))
        assert np.all(np.isfinite(assignment.confidences))
        assert np.all(np.isfinite(centers))
        plain, _ = fcm(points, 2)
        assert np.array_equal(assignment.cluster_ids, plain.cluster_ids)

    @pytest.mark.parametrize("shift", [700, -700, 1000, -1000])
    def test_power_of_two_scaling_is_exact(self, shift):
        # x * 2^shift with tolerance tol is the same problem as x with
        # tolerance tol * 2^-shift, and the scaling keeps it bit for bit.
        points = Rng(1).normal(0, 1, (20, 4))
        far, far_centers = fcm(points * 2.0**shift, 2, tol=1e-5, rng=Rng(3))
        near, near_centers = fcm(points, 2, tol=1e-5 * 2.0**-shift, rng=Rng(3))
        assert np.array_equal(far.memberships, near.memberships)
        assert np.array_equal(far.cluster_ids, near.cluster_ids)
        assert np.array_equal(far_centers, near_centers * 2.0**shift)

    def test_validation(self):
        points = Rng(7).normal(0, 1, (5, 2))
        with pytest.raises(ArgumentError):
            fcm(points, 1, rng=Rng(0))
        with pytest.raises(ArgumentError):
            fcm(points, 2, fuzzifier=1.0, rng=Rng(0))
        with pytest.raises(ArgumentError):
            fcm(points, 6, rng=Rng(0))
        with pytest.raises(ArgumentError, match="init"):
            fcm(points, 2, rng=Rng(0), init=np.zeros((3, 2)))
        with pytest.raises(ArgumentError, match="init"):
            fcm(points, 2, rng=Rng(0), init=np.zeros((2, 3)))


def assert_same_fcm(a, b):
    (assignment_a, centers_a), (assignment_b, centers_b) = a, b
    assert np.array_equal(assignment_a.memberships, assignment_b.memberships)
    assert np.array_equal(assignment_a.cluster_ids, assignment_b.cluster_ids)
    assert assignment_a.degenerate == assignment_b.degenerate
    assert np.array_equal(centers_a, centers_b)


class TestFcmWarmStart:
    def test_started_at_its_converged_centers_stops_within_two_iterations(self):
        points, _ = gradient_blobs(3)
        cold, centers = fcm(points, 2, rng=Rng(11))
        # Stopping within two updates, the run cut at two is the whole run.
        warm = fcm(points, 2, init=centers)
        assert_same_fcm(warm, fcm(points, 2, max_iter=2, init=centers))
        assert not np.array_equal(fcm(points, 2, max_iter=2, rng=Rng(11))[1], centers)
        assert np.array_equal(warm[0].cluster_ids, cold.cluster_ids)
        npt.assert_allclose(warm[1], centers, rtol=0, atol=1e-5)

    def test_warm_start_needs_no_draw(self):
        points, _ = gradient_blobs(3)
        _, centers = fcm(points, 2, rng=Rng(1))
        shifted = centers + 0.1
        assert_same_fcm(fcm(points, 2, rng=Rng(1), init=shifted),
                        fcm(points, 2, rng=Rng(2), init=shifted))

    @pytest.mark.parametrize("n", FCM_SIZES)
    def test_coincident_init_rows_take_the_seeded_draw(self, n):
        points = fcm_batch(n, "plain")
        init = np.repeat(points[:1], 2, axis=0)
        init = np.vstack([init, points[1:2]])
        assert_same_fcm(fcm(points, 3, rng=Rng(11), init=init), fcm(points, 3, rng=Rng(11)))

    def test_degenerate_batch_takes_the_seeded_draw(self):
        points = fcm_batch(60, "duplicates")  # 3 distinct rows for 4 clusters
        init = Rng(5).normal(0, 1, (4, points.shape[1]))
        warm = fcm(points, 4, rng=Rng(11), init=init)
        assert warm[0].degenerate
        assert_same_fcm(warm, fcm(points, 4, rng=Rng(11)))

    @pytest.mark.parametrize("shift", [700, -700])
    def test_scaled_batch_honours_init(self, shift):
        points = Rng(1).normal(0, 1, (20, 4))
        init = Rng(2).normal(0, 1, (2, 4))
        far = fcm(points * 2.0**shift, 2, tol=1e-5, rng=Rng(3), init=init * 2.0**shift)
        near = fcm(points, 2, tol=1e-5 * 2.0**-shift, rng=Rng(4), init=init)
        assert np.array_equal(far[0].memberships, near[0].memberships)
        assert np.array_equal(far[1], near[1] * 2.0**shift)


def gradient_blobs(seed, n_per=50, dim=6, separation=3.0, spread=1.0):
    """Two seeded Gaussian blobs standing in for returned gradients."""
    rng = Rng(seed)
    offset = np.zeros(dim)
    offset[0] = separation * spread
    a = rng.normal(0, spread, (n_per, dim))
    b = rng.normal(0, spread, (n_per, dim)) + offset
    labels = np.array([0] * n_per + [1] * n_per)
    return np.vstack([a, b]), labels


class TestPurityAndFiltering:
    def test_perfect_clustering(self):
        assignment = FuzzyAssignment(
            cluster_ids=np.array([0, 0, 1, 1]),
            confidences=np.ones(4),
            retained_mask=np.ones(4, dtype=bool),
        )
        assert purity(assignment, [5, 5, 9, 9]) == 1.0

    def test_maximal_confusion(self):
        assignment = FuzzyAssignment(
            cluster_ids=np.array([0, 0, 1, 1]),
            confidences=np.ones(4),
            retained_mask=np.ones(4, dtype=bool),
        )
        assert purity(assignment, [0, 1, 0, 1]) == 0.5

    def test_matches_counting_oracle(self):
        rng = Rng(11)
        ids = np.asarray(rng.integers(0, 10, size=100))
        labels = np.asarray(rng.integers(0, 10, size=100))
        assignment = FuzzyAssignment(
            cluster_ids=ids, confidences=np.ones(100),
            retained_mask=np.ones(100, dtype=bool),
        )
        expected = 0
        for cluster in set(ids.tolist()):
            counts = {}
            for c, l in zip(ids, labels):
                if c == cluster:
                    counts[l] = counts.get(l, 0) + 1
            expected += max(counts.values())
        assert purity(assignment, labels) == expected / 100

    @pytest.mark.parametrize("use_mask", [False, True])
    def test_bit_equal_to_per_cluster_unique(self, use_mask):
        # Cluster 2 has no rows, label 7 never occurs, and with the mask
        # label 3 occurs only in filtered-out rows.
        rng = Rng(12)
        ids = np.asarray(rng.integers(0, 4, size=80))
        ids[ids == 2] = 3
        labels = np.asarray(rng.choice(np.array([0, 1, 5, 9]), size=80, replace=True))
        labels[::10] = 3
        mask = np.ones(80, dtype=bool)
        if use_mask:
            mask[::10] = False
            mask[1::7] = False
        assignment = FuzzyAssignment(cluster_ids=ids, confidences=np.ones(80),
                                     retained_mask=mask)
        expected = purity_reference(ids[mask], labels[mask])
        assert purity(assignment, labels, use_mask=use_mask) == expected

    def test_empty_mask_raises(self):
        assignment = FuzzyAssignment(
            cluster_ids=np.array([0, 1]),
            confidences=np.array([0.4, 0.5]),
            retained_mask=np.zeros(2, dtype=bool),
        )
        with pytest.raises(InsufficientRetainedError):
            purity(assignment, [0, 1], use_mask=True)

    def test_filtering_rarely_hurts_purity(self):
        wins = 0
        for seed in range(100):
            grads, labels = gradient_blobs(seed, separation=6.0)
            assignment, _ = fcm(grads, 2, rng=Rng(seed).split("fcm"))
            unfiltered = purity(assignment, labels)
            filtered_assignment = assignment.filtered(0.8)
            try:
                filtered = purity(filtered_assignment, labels, use_mask=True)
            except InsufficientRetainedError:
                continue
            if filtered >= unfiltered:
                wins += 1
        assert wins >= 95


class TestContrastiveLoss:
    def two_row_assignment(self):
        return FuzzyAssignment(
            cluster_ids=np.array([0, 1]),
            confidences=np.ones(2),
            retained_mask=np.ones(2, dtype=bool),
        )

    def test_same_cluster_zero(self):
        assignment = FuzzyAssignment(
            cluster_ids=np.array([2, 2]),
            confidences=np.ones(2),
            retained_mask=np.ones(2, dtype=bool),
        )
        loss, grad = contrastive_loss(np.array([[0.0, 0.0], [3.0, 4.0]]), assignment, 1.0)
        assert loss == 0.0
        npt.assert_array_equal(grad, np.zeros((2, 2)))

    def test_hand_computed_cross_pair(self):
        batch = np.array([[0.0, 0.0], [3.0, 4.0]])
        loss, _ = contrastive_loss(batch, self.two_row_assignment(), 1.0)
        assert abs(loss - (-2.5)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = Rng(41)
        batch = rng.normal(0, 1, (7, 3))
        assignment = FuzzyAssignment(
            cluster_ids=np.asarray(rng.integers(0, 3, size=7)),
            confidences=np.ones(7),
            retained_mask=np.asarray(rng.integers(0, 2, size=7)) > 0,
        )
        if assignment.n_retained < 2:
            assignment = assignment.filtered(0.0)
        beta = 0.9

        def scalar(x):
            loss, _ = contrastive_loss(x, assignment, beta)
            return loss

        loss, grad = contrastive_loss(batch, assignment, beta)
        numeric = central_difference(scalar, batch)
        assert relative_error(grad, numeric) < 1e-4

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_bit_equal_to_scatter_reference(self, n, case):
        batch = kernel_batch(n, case)
        assignment = kernel_assignment(n)
        loss, grad = contrastive_loss(batch, assignment, 0.9)
        ref_loss, ref_grad = contrastive_reference(batch, assignment, 0.9)
        assert loss == ref_loss
        tolerance = gradient_tolerance(case, ref_grad, PAIR_TOLERANCE)
        npt.assert_allclose(grad, ref_grad, rtol=0, atol=tolerance)
        assert np.any(grad != 0.0)

    def test_insufficient_retained_rows_warns(self, caplog):
        batch = np.zeros((3, 2))
        assignment = FuzzyAssignment(
            cluster_ids=np.array([0, 1, 0]),
            confidences=np.array([0.9, 0.1, 0.1]),
            retained_mask=np.array([True, False, False]),
        )
        # Logged at DEBUG: protocol.train sums the skips into one warning.
        with caplog.at_level("DEBUG", logger="dpvfl.adaptive"):
            loss, grad = contrastive_loss(batch, assignment, 1.0)
        assert loss == 0.0
        npt.assert_array_equal(grad, np.zeros_like(batch))
        assert [(r.levelname, "retained" in r.getMessage()) for r in caplog.records] == [
            ("DEBUG", True)
        ]

    def test_training_increases_inter_class_distance(self):
        # A toy extractor trained with only the contrastive term must push
        # the two classes apart relative to the untouched control.
        rng = Rng(55)
        x = rng.normal(0, 1, (20, 4))
        labels = np.array([0] * 10 + [1] * 10)
        assignment = FuzzyAssignment(
            cluster_ids=labels.copy(),
            confidences=np.ones(20),
            retained_mask=np.ones(20, dtype=bool),
        )
        config = TrainingSection(learning_rate=0.05, batch_size=20, epochs=1, weight_decay=0.0)

        def mean_inter_class(net):
            h = net.copy().forward(x)
            return float(np.mean([
                np.linalg.norm(h[j] - h[k])
                for j in range(10) for k in range(10, 20)
            ]))

        net = DenseNet.create([4, 8, 3], ["tanh", "identity"], Rng(77))
        control = net.copy()
        for _ in range(100):
            h = net.forward(x)
            _, grad = contrastive_loss(h, assignment, beta=1.0)
            grads, _ = net.backward(grad)
            sgd_step(net, grads, config)
        assert mean_inter_class(net) > mean_inter_class(control)
