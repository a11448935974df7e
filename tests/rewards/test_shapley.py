"""Tests for Shapley valuation: axioms, estimators, data valuation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RewardError
from repro.ml.datasets import make_iot_activity, split_dirichlet, train_test_split
from repro.ml.models import SoftmaxRegressionModel
from repro.rewards.shapley import (
    CachedValueFunction,
    DataValuationTask,
    exact_shapley,
    leave_one_out,
    monte_carlo_shapley,
    normalize_to_payouts,
    truncated_monte_carlo_shapley,
)


def additive_game(weights):
    return lambda coalition: float(sum(weights[i] for i in coalition))


def majority_game(n, quota):
    """v(S) = 1 when |S| >= quota else 0."""
    return lambda coalition: 1.0 if len(coalition) >= quota else 0.0


class TestExactShapley:
    def test_additive_game(self):
        weights = [1.0, 2.0, 3.0]
        values = exact_shapley(3, additive_game(weights))
        assert np.allclose(values, weights)

    def test_efficiency_axiom(self, rng):
        payoffs = rng.normal(size=16)

        def game(coalition):
            # A submodular-ish random game keyed on the coalition mask.
            mask = sum(1 << i for i in coalition)
            local = np.random.default_rng(mask)
            return float(local.normal()) if coalition else 0.0

        values = exact_shapley(4, game)
        grand = game(frozenset(range(4)))
        assert values.sum() == pytest.approx(grand - game(frozenset()))

    def test_symmetry_axiom(self):
        # Players 0 and 1 are interchangeable.
        def game(coalition):
            return float(len(coalition & {0, 1}) > 0) + \
                2.0 * float(2 in coalition)

        values = exact_shapley(3, game)
        assert values[0] == pytest.approx(values[1])

    def test_dummy_axiom(self):
        # Player 2 never changes the value.
        weights = [5.0, 3.0]

        def game(coalition):
            return float(sum(w for i, w in enumerate(weights)
                             if i in coalition))

        values = exact_shapley(3, game)
        assert values[2] == pytest.approx(0.0)

    def test_majority_game_uniform(self):
        values = exact_shapley(3, majority_game(3, 2))
        assert np.allclose(values, [1 / 3, 1 / 3, 1 / 3])

    def test_too_many_players_rejected(self):
        with pytest.raises(RewardError):
            exact_shapley(25, additive_game([0.0] * 25))

    def test_zero_players_rejected(self):
        with pytest.raises(RewardError):
            exact_shapley(0, additive_game([]))

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=6))
    def test_additive_game_property(self, weights):
        values = exact_shapley(len(weights), additive_game(weights))
        assert np.allclose(values, weights, atol=1e-9)


class TestEstimators:
    def test_monte_carlo_unbiased_on_additive(self, rng):
        weights = [1.0, 4.0, 2.0, 3.0]
        estimate = monte_carlo_shapley(4, additive_game(weights), 50, rng)
        assert np.allclose(estimate, weights)  # exact for additive games

    def test_monte_carlo_converges_on_majority(self, rng):
        exact = exact_shapley(5, majority_game(5, 3))
        estimate = monte_carlo_shapley(5, majority_game(5, 3), 3000, rng)
        assert np.abs(estimate - exact).max() < 0.05

    def test_tmc_close_to_exact(self, rng):
        exact = exact_shapley(5, majority_game(5, 3))
        estimate = truncated_monte_carlo_shapley(
            5, majority_game(5, 3), 3000, rng, tolerance=0.0
        )
        assert np.abs(estimate - exact).max() < 0.05

    def test_tmc_truncation_saves_evaluations(self, rng):
        calls_without = CachedValueFunction(majority_game(8, 2))
        monte_carlo_shapley(8, calls_without, 50, np.random.default_rng(1))
        truncated_monte_carlo_shapley(
            8, majority_game(8, 2), 50, np.random.default_rng(1),
            tolerance=0.01,
        )
        fraction = truncated_monte_carlo_shapley.last_truncation_fraction
        assert fraction > 0.3  # the quota is hit early in most scans

    def test_leave_one_out_misses_redundancy(self):
        # Two identical players: LOO gives both 0; Shapley splits credit.
        def game(coalition):
            return 1.0 if coalition & {0, 1} else 0.0

        loo = leave_one_out(2, game)
        shap = exact_shapley(2, game)
        assert np.allclose(loo, [0.0, 0.0])
        assert np.allclose(shap, [0.5, 0.5])

    def test_estimator_argument_validation(self, rng):
        with pytest.raises(RewardError):
            monte_carlo_shapley(3, additive_game([1, 1, 1]), 0, rng)
        with pytest.raises(RewardError):
            truncated_monte_carlo_shapley(3, additive_game([1, 1, 1]), 0,
                                          rng)


class TestCaching:
    def test_coalition_values_cached(self):
        calls = []

        def game(coalition):
            calls.append(coalition)
            return float(len(coalition))

        cached = CachedValueFunction(game)
        cached(frozenset({1, 2}))
        cached(frozenset({1, 2}))
        cached(frozenset({2, 1}))
        assert len(calls) == 1
        assert cached.evaluations == 1


class TestDataValuation:
    @pytest.fixture(scope="class")
    def task(self):
        rng = np.random.default_rng(31)
        data = make_iot_activity(900, rng)
        train, validation = train_test_split(data, 0.3, rng)
        parts = split_dirichlet(train, 5, 0.5, rng, min_samples=5)
        return DataValuationTask(
            model_factory=lambda: SoftmaxRegressionModel(6, 5),
            provider_datasets=parts, validation=validation,
            train_steps=50, seed=3,
        )

    def test_efficiency_holds(self, task):
        values = exact_shapley(len(task.provider_datasets), task)
        grand = task(frozenset(range(len(task.provider_datasets))))
        empty = task(frozenset())
        assert values.sum() == pytest.approx(grand - empty, abs=1e-9)

    def test_valuation_deterministic(self, task):
        a = task(frozenset({0, 2}))
        b = task(frozenset({0, 2}))
        assert a == b

    def test_data_helps(self, task):
        grand = task(frozenset(range(len(task.provider_datasets))))
        empty = task(frozenset())
        assert grand > empty


class TestPayoutNormalization:
    def test_fractions_sum_to_one(self):
        payouts = normalize_to_payouts(np.array([0.1, 0.4, 0.5]))
        assert payouts.sum() == pytest.approx(1.0)

    def test_negative_values_clipped(self):
        payouts = normalize_to_payouts(np.array([-0.5, 0.5, 0.5]))
        assert payouts[0] == 0.0
        assert payouts.sum() == pytest.approx(1.0)

    def test_all_nonpositive_gives_equal_shares(self):
        payouts = normalize_to_payouts(np.array([-1.0, -2.0]))
        assert np.allclose(payouts, [0.5, 0.5])
