import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpvfl.config import AdaptiveSection, ExperimentConfig, PrivacyConfig
from dpvfl.errors import ArgumentError, ConfigError
from dpvfl.mechanism import (
    PrivacyParams,
    add_noise,
    calibrate_sigma,
    clip_norm,
    clip_norm_vjp,
    mechanism_ratio_check,
)
from dpvfl.numerics import Rng, pairwise_distances

from conftest import central_difference, relative_error


def clip_norm_reference(batch, t):
    """clip_norm with its row norms from np.linalg.norm."""
    norms = np.linalg.norm(batch, axis=1)
    scale = np.ones_like(norms)
    over = norms > t
    scale[over] = t / norms[over]
    clipped = batch * scale[:, None]
    for _ in range(8):
        norms = np.linalg.norm(clipped, axis=1)
        over = norms > t
        if not np.any(over):
            return clipped
        clipped[over] *= (t / norms[over])[:, None]
    raise AssertionError("reference clip did not converge")


def clip_norm_vjp_reference(batch, t, upstream):
    norms = np.linalg.norm(batch, axis=1)
    out = upstream.copy()
    over = norms > t
    if np.any(over):
        h = batch[over]
        n = norms[over][:, None]
        unit = h / n
        radial = np.einsum("ij,ij->i", upstream[over], unit)[:, None]
        out[over] = (t / n) * (upstream[over] - radial * unit)
    return out


def straddling_batch(t):
    """Rows below, exactly at and above norm ``t``: (3, 4) has norm 5 exactly."""
    batch = Rng(17).normal(0, t, (40, 4))
    batch[0] = [0.6 * t, 0.8 * t, 0.0, 0.0]
    batch[1] = [3.0, 4.0, 0.0, 0.0]
    batch[2] = 0.0
    return batch


def params_for(epsilon=0.5, delta=1e-2, t=1.0, **kw):
    return PrivacyParams.from_budget(epsilon, delta, t, **kw)


class TestCalibrateSigma:
    # Oracle: direct evaluation of sqrt(2 ln(1.25/delta)) / epsilon.
    def test_near_unit_epsilon(self):
        expected = math.sqrt(2 * math.log(125.0)) / (1 - 1e-9)
        assert abs(calibrate_sigma(1 - 1e-9, 1e-2) - expected) < 1e-12
        assert abs(expected - 3.1075) < 5e-4

    def test_half_epsilon_doubles_sigma(self):
        expected = math.sqrt(2 * math.log(125.0)) / 0.5
        assert abs(calibrate_sigma(0.5, 1e-2) - expected) < 1e-12
        assert abs(expected - 6.2150) < 1e-3

    def test_small_delta(self):
        expected = math.sqrt(2 * math.log(1.25e4)) / 0.5
        assert abs(calibrate_sigma(0.5, 1e-4) - expected) < 1e-12
        assert abs(expected - 8.6872) < 1e-3

    def test_monotone_in_epsilon_and_delta(self):
        eps_grid = np.linspace(0.1, 0.9, 9)
        sig = [calibrate_sigma(e, 1e-2) for e in eps_grid]
        assert all(a > b for a, b in zip(sig, sig[1:]))
        delta_grid = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
        sig = [calibrate_sigma(0.5, d) for d in delta_grid]
        assert all(a > b for a, b in zip(sig, sig[1:]))

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, -0.2])
    def test_epsilon_domain(self, eps):
        with pytest.raises(ArgumentError):
            calibrate_sigma(eps, 1e-2)


class TestPrivacyParams:
    def test_derived_fields(self):
        p = params_for(0.5, 1e-2, 2.0)
        assert p.sigma == calibrate_sigma(0.5, 1e-2)
        assert abs(p.noise_std - p.sigma * 4.0) < 1e-12

    def test_sigma_may_only_increase(self):
        minimal = calibrate_sigma(0.5, 1e-2)
        params_for(0.5, 1e-2, 1.0, sigma=minimal * 2)
        with pytest.raises(ArgumentError):
            params_for(0.5, 1e-2, 1.0, sigma=minimal / 2)

    def test_large_epsilon_needs_escape_hatch(self, caplog):
        with pytest.raises(ArgumentError):
            params_for(2.0, 1e-2, 1.0)
        with caplog.at_level("WARNING"):
            p = params_for(2.0, 1e-2, 1.0, allow_large_epsilon=True)
        assert p.epsilon == 2.0
        assert any("outside the calibrated domain" in r.message for r in caplog.records)

    @pytest.mark.parametrize("delta", [0.0, -0.5, 1.0, 2.0])
    def test_large_epsilon_checks_delta_before_sigma(self, delta):
        with pytest.raises(ArgumentError, match=rf"delta must lie in \(0, 1\), got {delta}$"):
            params_for(10.0, delta, 1.0, allow_large_epsilon=True)

    def test_delta_prime_must_stay_below_one(self):
        # delta' = delta / (p1 * p2) spans two sections, so the whole config checks it.
        privacy = PrivacyConfig(delta=0.5, p1=0.5)
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig(privacy=privacy, adaptive=AdaptiveSection(p2=0.9))
        assert str(excinfo.value) == (
            f"privacy.delta / (privacy.p1 * adaptive.p2) must stay below 1, got {0.5 / 0.45!r}"
        )
        ExperimentConfig(privacy=replace(privacy, enabled=False),
                         adaptive=AdaptiveSection(p2=0.9))


class TestClipNorm:
    def test_rescales_to_ball(self):
        npt.assert_allclose(clip_norm([[3.0, 4.0]], 1.0), [[0.6, 0.8]], atol=1e-15)

    def test_inside_ball_unchanged(self):
        batch = np.array([[0.3, 0.4]])
        npt.assert_array_equal(clip_norm(batch, 1.0), batch)

    def test_zero_row_fixed_point(self):
        npt.assert_array_equal(clip_norm(np.zeros((1, 3)), 0.7), np.zeros((1, 3)))

    def test_invalid_threshold(self):
        with pytest.raises(ArgumentError):
            clip_norm(np.ones((2, 2)), 0.0)

    @settings(max_examples=60)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.05, max_value=10.0),
    )
    def test_bound_exact_and_direction_preserved(self, seed, t):
        batch = Rng(seed).normal(0, 5.0, (6, 4))
        clipped = clip_norm(batch, t)
        norms = np.linalg.norm(clipped, axis=1)
        assert np.all(norms <= t)
        assert pairwise_distances(clipped).max() <= 2 * t
        for row, orig in zip(clipped, batch):
            n = np.linalg.norm(orig)
            if n > 0:
                npt.assert_allclose(row / max(np.linalg.norm(row), 1e-300),
                                    orig / n, atol=1e-9)


    @pytest.mark.parametrize("t", [0.5, 1.0, 5.0])
    def test_bit_equal_to_linalg_norm_reference(self, t):
        batch = straddling_batch(t)
        norms = np.linalg.norm(batch, axis=1)
        assert np.any(norms < t) and np.any(norms == t) and np.any(norms > t)
        assert np.array_equal(clip_norm(batch, t), clip_norm_reference(batch, t))


class TestClipNormVjp:
    def test_matches_finite_differences(self):
        rng = Rng(21)
        batch = rng.normal(0, 1.5, (5, 3))
        upstream = rng.normal(0, 1.0, (5, 3))
        t = 1.0

        def scalar(x):
            return float(np.sum(clip_norm(x, t) * upstream))

        numeric = central_difference(scalar, batch)
        analytic = clip_norm_vjp(batch, t, upstream)
        assert relative_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("t", [0.5, 1.0, 5.0])
    def test_bit_equal_to_linalg_norm_reference(self, t):
        batch = straddling_batch(t)
        upstream = Rng(18).normal(0, 1, batch.shape)
        assert np.array_equal(clip_norm_vjp(batch, t, upstream),
                              clip_norm_vjp_reference(batch, t, upstream))

    def test_identity_inside_ball(self):
        batch = np.full((3, 2), 0.1)
        upstream = np.arange(6.0).reshape(3, 2)
        npt.assert_array_equal(clip_norm_vjp(batch, 10.0, upstream), upstream)


class TestAddNoise:
    def test_sigma_zero_hook_returns_copy(self):
        batch = Rng(1).normal(0, 1, (4, 3))
        out = add_noise(batch, replace(params_for(), noise_sigma=0.0), Rng(2))
        npt.assert_array_equal(out, batch)
        assert out is not batch

    def test_noise_std_statistical(self):
        p = params_for(1 - 1e-9, 1e-2, 1.0)  # sigma ~ 3.1075, std ~ 6.215
        batch = np.zeros((100, 1000))
        noisy = add_noise(batch, p, Rng(5))
        sample_std = noisy.std()
        assert abs(sample_std - p.noise_std) / p.noise_std < 0.01

    def test_same_seed_same_noise(self):
        p = params_for()
        batch = np.ones((3, 3))
        a = add_noise(batch, p, Rng(9).split("noise", 0))
        b = add_noise(batch, p, Rng(9).split("noise", 0))
        npt.assert_array_equal(a, b)

    def test_noise_std_uses_the_records_noise_sigma(self):
        p = replace(params_for(), noise_sigma=0.25)
        assert p.noise_std == 0.25 * 2.0
        batch = np.zeros((200, 500))
        assert abs(add_noise(batch, p, Rng(3)).std() - 0.5) / 0.5 < 0.01

    def test_negative_sigma_rejected(self):
        with pytest.raises(ArgumentError, match="sigma must be non-negative"):
            replace(params_for(), noise_sigma=-1.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ArgumentError, match="shape must be positive"):
            add_noise(np.empty((0, 3)), params_for(), Rng(0))


class TestMechanismRatioCheck:
    GRID = [(e, d) for e in (0.2, 0.5, 0.9) for d in (1e-2, 1e-4)]

    @pytest.mark.parametrize("epsilon,delta", GRID)
    def test_compliant_sigma_passes(self, epsilon, delta):
        report = mechanism_ratio_check(params_for(epsilon, delta, 1.0), trials=4001)
        assert report.passed
        assert report.max_margin <= 1e-9
        assert report.violation_count == 0

    @staticmethod
    def worst_event_margin(epsilon, delta, sigma):
        """Independent oracle: closed-form worst threshold-event margin.

        For scalar neighbors at disparity D with noise std s = sigma * D, the
        privacy-loss-maximizing half-line is (-inf, D/2 - eps * s^2 / D], where
        the margin equals Phi(1/(2 sigma) - eps sigma)
        - e^eps Phi(-1/(2 sigma) - eps sigma) - delta.
        """
        phi = lambda z: 0.5 * (1 + math.erf(z / math.sqrt(2)))
        a = 1 / (2 * sigma)
        return phi(a - epsilon * sigma) - math.exp(epsilon) * phi(-a - epsilon * sigma) - delta

    @pytest.mark.parametrize("epsilon,delta", GRID)
    def test_halved_sigma_verdict_matches_analytic_oracle(self, epsilon, delta):
        # Halving sigma breaks the guarantee on five of the six grid points;
        # at (0.2, 1e-2) the calibration is loose enough that half of it still
        # satisfies (eps, delta)-DP, and the checker must agree with the oracle
        # rather than cry wolf.
        p = params_for(epsilon, delta, 1.0)
        report = mechanism_ratio_check(p, trials=4001, sigma=p.sigma / 2)
        oracle_margin = self.worst_event_margin(epsilon, delta, p.sigma / 2)
        assert report.passed == (oracle_margin <= 1e-9)
        assert abs(report.max_margin - oracle_margin) < 1e-5
        if (epsilon, delta) != (0.2, 1e-2):
            assert not report.passed
            assert report.violation_count > 0

    def test_degenerate_threshold_trivially_satisfied(self):
        report = mechanism_ratio_check(params_for(), trials=501, t=0.0)
        assert report.passed

    def test_trials_validated(self):
        with pytest.raises(ArgumentError):
            mechanism_ratio_check(params_for(), trials=2)
