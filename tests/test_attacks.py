import numpy as np
import pytest

from dpvfl.attacks import AttackReport, inversion_attack, membership_inference
from dpvfl.config import AttackConfig
from dpvfl.errors import ArgumentError
from dpvfl.mechanism import PrivacyParams, add_noise, clip_norm
from dpvfl.numerics import Rng


def identity_release(noise_sigma=0.0, t=1e6):
    params = PrivacyParams.from_budget(0.5, 1e-2, t)

    def release(x, rng):
        clipped = clip_norm(np.asarray(x, dtype=np.float64), t)
        return add_noise(clipped, params, rng, sigma=noise_sigma)

    return release


class TestInversionAttack:
    def test_identity_victim_without_noise_inverts(self):
        rng = Rng(1)
        attacker = rng.normal(0, 1, (256, 4))
        holdout = rng.normal(0, 1, (64, 4))
        report = inversion_attack(
            identity_release(), [4, 4], attacker, holdout,
            AttackConfig(decoder_epochs=80, decoder_lr=0.1), Rng(2),
            victim_tag="identity",
        )
        assert report.kind == "inversion"
        assert report.failed_trials == 0
        assert report.metric < 1e-3

    def test_noise_raises_mse_at_least_5x(self):
        rng = Rng(3)
        attacker = rng.normal(0, 0.4, (256, 4))
        holdout = rng.normal(0, 0.4, (64, 4))
        base = inversion_attack(
            identity_release(noise_sigma=0.0, t=1.0), [4, 4], attacker, holdout,
            AttackConfig(decoder_epochs=80, decoder_lr=0.1), Rng(4),
        )
        params = PrivacyParams.from_budget(0.5, 1e-2, 1.0)
        noisy = inversion_attack(
            identity_release(noise_sigma=params.sigma, t=1.0), [4, 4],
            attacker, holdout,
            AttackConfig(decoder_epochs=80, decoder_lr=0.1), Rng(4),
        )
        assert noisy.metric >= 5 * base.metric

    @pytest.mark.parametrize("hidden, dims", [
        (None, [4, 6, 3]), ([], [4, 6, 3]), ([5], [4, 5, 3]),
    ])
    def test_decoder_mirrors_extractor_unless_hidden_given(self, hidden, dims):
        # An empty decoder_hidden, like null, mirrors the extractor.
        x = Rng(9).normal(0, 1, (16, 3))
        report = inversion_attack(
            lambda v, rng: v @ np.ones((3, 4)), [3, 6, 4], x, x,
            AttackConfig(decoder_epochs=1, decoder_hidden=hidden), Rng(10),
        )
        assert report.details["decoder_dims"] == dims

    def test_zero_training_pairs_rejected(self):
        with pytest.raises(ArgumentError):
            inversion_attack(
                identity_release(), [4, 4], np.empty((0, 4)), np.empty((0, 4)),
                AttackConfig(), Rng(0),
            )

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergent_fit_counted_as_failed_trial(self):
        rng = Rng(5)
        attacker = rng.normal(0, 1, (64, 3))
        report = inversion_attack(
            identity_release(), [3, 3], attacker, attacker,
            AttackConfig(decoder_epochs=40, decoder_lr=1e9), Rng(6),
        )
        assert report.failed_trials == 1
        assert np.isnan(report.metric)


def uniform_conf_fn(n_classes=4):
    def conf(inputs, rng):
        n = np.asarray(inputs[0] if isinstance(inputs, list) else inputs).shape[0]
        return np.full((n, n_classes), 1.0 / n_classes)

    return conf


def leaky_conf_fn(n_classes=4, confident=0.97):
    """Members get confident one-hot-ish vectors, non-members near-uniform."""

    def factory(member):
        def conf(inputs, rng):
            x = np.asarray(inputs[0] if isinstance(inputs, list) else inputs)
            n = x.shape[0]
            out = np.full((n, n_classes), (1 - confident) / (n_classes - 1))
            if member:
                out[:, 0] = confident
            else:
                out[:] = 1.0 / n_classes
                jitter = rng.normal(0, 0.01, (n, n_classes))
                out = np.abs(out + jitter)
                out /= out.sum(axis=1, keepdims=True)
            return out

        return conf

    return factory


class TestMembershipInference:
    def make_inputs(self, n=64, d=3, seed=0):
        return Rng(seed).normal(0, 1, (n, d))

    def test_uniform_victim_near_chance(self):
        conf = uniform_conf_fn()

        def shadow_factory(i, rng):
            return conf, self.make_inputs(seed=10 + i), self.make_inputs(seed=50 + i)

        report = membership_inference(
            conf, self.make_inputs(seed=1), self.make_inputs(seed=2),
            shadow_factory, AttackConfig(shadows=3, attack_epochs=50), Rng(7),
        )
        assert abs(report.metric - 0.5) <= 0.1

    def test_leaky_victim_detected(self):
        factory = leaky_conf_fn()
        member_conf, nonmember_conf = factory(True), factory(False)

        def victim_conf(inputs, rng):
            # The balanced eval set arrives as members first in one call,
            # nonmembers in the other; approximate by flagging via rng path.
            raise NotImplementedError

        def shadow_factory(i, rng):
            ins = self.make_inputs(seed=100 + i)
            outs = self.make_inputs(seed=200 + i)
            calls = {"n": 0}

            def conf(inputs, rng):
                calls["n"] += 1
                fn = member_conf if calls["n"] == 1 else nonmember_conf
                return fn(inputs, rng)

            return conf, ins, outs

        members = self.make_inputs(seed=11)
        nonmembers = self.make_inputs(seed=12)
        eval_calls = {"n": 0}

        def victim(inputs, rng):
            eval_calls["n"] += 1
            fn = member_conf if eval_calls["n"] == 1 else nonmember_conf
            return fn(inputs, rng)

        report = membership_inference(
            victim, members, nonmembers, shadow_factory,
            AttackConfig(shadows=4, attack_epochs=100), Rng(8),
        )
        # 3 standard errors over 128 balanced samples is ~0.13.
        assert report.metric > 0.5 + 3 * np.sqrt(0.25 / 128)

    def test_too_few_shadows_rejected(self):
        with pytest.raises(ArgumentError):
            membership_inference(
                uniform_conf_fn(), self.make_inputs(), self.make_inputs(),
                lambda i, rng: None, AttackConfig(shadows=1), Rng(0),
            )
