"""Tests for DP-SGD training, membership inference, and risk analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PrivacyError
from repro.ml.datasets import make_binary_classification, train_test_split
from repro.ml.models import MLPClassifier, SoftmaxRegressionModel
from repro.privacy.attacks import membership_inference_attack
from repro.privacy.dpsgd import (
    DPSGDConfig,
    clip_gradients,
    noise_multiplier_for_epsilon,
    train_dpsgd,
)
from repro.privacy.leakage import (
    MitigationLevel,
    OutputKind,
    WorkloadRiskProfile,
    assess_workload,
)


class TestClipping:
    def test_norms_bounded(self, rng):
        grads = rng.normal(size=(16, 8)) * 10
        clipped, hit = clip_gradients(grads, clip_norm=1.0)
        norms = np.linalg.norm(clipped, axis=1)
        assert np.all(norms <= 1.0 + 1e-9)
        assert hit > 0.9

    def test_small_gradients_untouched(self, rng):
        grads = rng.normal(size=(16, 8)) * 0.001
        clipped, hit = clip_gradients(grads, clip_norm=1.0)
        assert np.allclose(clipped, grads)
        assert hit == 0.0


class TestDPSGD:
    def test_training_learns_with_moderate_noise(self, rng):
        data = make_binary_classification(500, 6, rng, noise=0.3)
        train, test = train_test_split(data, 0.3, rng)
        model = SoftmaxRegressionModel(6, 2)
        result = train_dpsgd(
            model, train.features, train.targets,
            DPSGDConfig(noise_multiplier=0.8, steps=150, batch_size=32,
                        learning_rate=0.2),
            rng,
        )
        assert model.score(test.features, test.targets) > 0.75
        assert np.isfinite(result.epsilon)
        assert result.epsilon > 0

    def test_zero_noise_reports_infinite_epsilon(self, rng):
        data = make_binary_classification(100, 4, rng)
        model = SoftmaxRegressionModel(4, 2)
        result = train_dpsgd(
            model, data.features, data.targets,
            DPSGDConfig(noise_multiplier=0.0, steps=20), rng,
        )
        assert result.epsilon == float("inf")

    def test_more_noise_more_privacy_less_accuracy(self, rng):
        data = make_binary_classification(600, 6,
                                          np.random.default_rng(5),
                                          noise=0.2)
        train, test = train_test_split(data, 0.3, np.random.default_rng(5))

        def run(noise):
            model = SoftmaxRegressionModel(6, 2)
            result = train_dpsgd(
                model, train.features, train.targets,
                DPSGDConfig(noise_multiplier=noise, steps=150,
                            learning_rate=0.2),
                np.random.default_rng(7),
            )
            return result.epsilon, model.score(test.features, test.targets)

        eps_low_noise, acc_low_noise = run(0.5)
        eps_high_noise, acc_high_noise = run(8.0)
        assert eps_high_noise < eps_low_noise
        assert acc_high_noise <= acc_low_noise + 0.05

    def test_empty_data_rejected(self, rng):
        model = SoftmaxRegressionModel(3, 2)
        with pytest.raises(PrivacyError):
            train_dpsgd(model, np.zeros((0, 3)), np.zeros(0),
                        DPSGDConfig(), rng)

    def test_invalid_config_rejected(self):
        with pytest.raises(PrivacyError):
            DPSGDConfig(clip_norm=0.0)
        with pytest.raises(PrivacyError):
            DPSGDConfig(steps=0)


class TestNoiseCalibration:
    def test_calibrated_noise_hits_target(self):
        noise = noise_multiplier_for_epsilon(2.0, sampling_rate=0.02,
                                             steps=500)
        from repro.privacy.accountant import RDPAccountant

        accountant = RDPAccountant()
        accountant.step(noise, 0.02, steps=500)
        achieved = accountant.get_epsilon(1e-5)
        assert achieved == pytest.approx(2.0, rel=0.05)

    def test_tighter_target_needs_more_noise(self):
        strict = noise_multiplier_for_epsilon(0.5, 0.02, 500)
        loose = noise_multiplier_for_epsilon(8.0, 0.02, 500)
        assert strict > loose

    def test_invalid_target_rejected(self):
        with pytest.raises(PrivacyError):
            noise_multiplier_for_epsilon(0.0, 0.1, 100)


class TestMembershipInference:
    @pytest.fixture(scope="class")
    def overfit_setup(self):
        """An overparameterized MLP memorizing a tiny member set."""
        rng = np.random.default_rng(21)
        # Heavy label noise makes the memorized labels unpredictable from
        # the features, so memorization is the only way to fit — the worst
        # case for privacy.
        data = make_binary_classification(240, 8, rng, noise=4.0)
        members = data.subset(np.arange(0, 40))
        nonmembers = data.subset(np.arange(40, 80))
        model = MLPClassifier(8, 64, 2, init_rng=rng)
        model.train_steps(members.features, members.targets.astype(int),
                          steps=2000, learning_rate=0.3, batch_size=40,
                          rng=rng)
        return model, members, nonmembers

    def test_overfit_model_leaks(self, overfit_setup):
        model, members, nonmembers = overfit_setup
        result = membership_inference_attack(
            model, members.features, members.targets.astype(int),
            nonmembers.features, nonmembers.targets.astype(int),
        )
        assert result.auc > 0.6
        assert result.advantage > 0.2
        assert result.member_mean_loss < result.nonmember_mean_loss

    def test_untrained_model_does_not_leak(self, rng):
        data = make_binary_classification(100, 8, rng)
        model = SoftmaxRegressionModel(8, 2)
        result = membership_inference_attack(
            model, data.features[:50], data.targets[:50],
            data.features[50:], data.targets[50:],
        )
        assert abs(result.auc - 0.5) < 0.2
        assert result.advantage < 0.35

    def test_empty_sets_rejected(self, rng):
        model = SoftmaxRegressionModel(3, 2)
        with pytest.raises(PrivacyError):
            membership_inference_attack(model, np.zeros((0, 3)), np.zeros(0),
                                        np.zeros((1, 3)), np.zeros(1))


class TestRiskAnalyzer:
    def test_memorizing_single_provider_rejected(self):
        profile = WorkloadRiskProfile(
            model_parameters=100_000, training_samples=100,
            num_providers=1, output_kind=OutputKind.FULL_MODEL,
        )
        assert assess_workload(profile).mitigation == MitigationLevel.REJECT

    def test_safe_aggregate_passes(self):
        profile = WorkloadRiskProfile(
            model_parameters=50, training_samples=100_000,
            num_providers=1000,
            output_kind=OutputKind.AGGREGATE_STATISTIC, dp_epsilon=1.0,
        )
        assert assess_workload(profile).mitigation == MitigationLevel.NONE

    def test_dp_discount_reduces_risk(self):
        base = WorkloadRiskProfile(
            model_parameters=5_000, training_samples=1_000,
            num_providers=10, output_kind=OutputKind.FULL_MODEL,
        )
        with_dp = WorkloadRiskProfile(
            model_parameters=5_000, training_samples=1_000,
            num_providers=10, output_kind=OutputKind.FULL_MODEL,
            dp_epsilon=1.0,
        )
        assert assess_workload(with_dp).risk_score < \
            assess_workload(base).risk_score

    def test_output_kind_ordering(self):
        def risk(kind):
            return assess_workload(WorkloadRiskProfile(
                model_parameters=1_000, training_samples=1_000,
                num_providers=50, output_kind=kind,
            )).risk_score

        assert risk(OutputKind.AGGREGATE_STATISTIC) < \
            risk(OutputKind.PREDICTIONS) < risk(OutputKind.FULL_MODEL)

    def test_more_providers_lower_risk(self):
        def risk(providers):
            return assess_workload(WorkloadRiskProfile(
                model_parameters=1_000, training_samples=10_000,
                num_providers=providers,
                output_kind=OutputKind.PREDICTIONS,
            )).risk_score

        assert risk(500) < risk(5)
