"""Tests for model-based pricing and reward distribution."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RewardError
from repro.ml.datasets import make_iot_activity, train_test_split
from repro.ml.models import SoftmaxRegressionModel
from repro.rewards.distribution import (
    WEIGHT_BPS,
    distribute_rewards,
    largest_remainder_allocation,
    normalize_weights_bps,
)
from repro.rewards.pricing import ModelPricingScheme, verify_arbitrage_free


@pytest.fixture(scope="module")
def trained_scheme():
    rng = np.random.default_rng(41)
    data = make_iot_activity(1200, rng)
    train, validation = train_test_split(data, 0.3, rng)
    model = SoftmaxRegressionModel(6, 5)
    model.train_steps(train.features, train.targets, 400, 0.3, 32, rng)
    return ModelPricingScheme(model, validation, min_price=1.0,
                              max_price=64.0, base_noise_std=2.0)


class TestPricing:
    def test_noise_decreases_with_price(self, trained_scheme):
        noises = [trained_scheme.noise_std_for_price(p)
                  for p in (1, 2, 4, 8, 64)]
        assert noises == sorted(noises, reverse=True)
        assert noises[-1] == 0.0

    def test_below_minimum_rejected(self, trained_scheme):
        with pytest.raises(RewardError):
            trained_scheme.noise_std_for_price(0.5)

    def test_max_price_buys_exact_model(self, trained_scheme, rng):
        bought = trained_scheme.model_for_budget(64.0, rng)
        assert np.array_equal(bought.params, trained_scheme.model.params)

    def test_cheap_model_is_degraded(self, trained_scheme, rng):
        expensive = trained_scheme.expected_score(64.0, rng, trials=4)
        cheap = trained_scheme.expected_score(1.0, rng, trials=4)
        assert cheap < expensive

    def test_curve_is_arbitrage_free(self, trained_scheme, rng):
        curve = trained_scheme.price_curve([1, 2, 4, 8, 16, 32, 64], rng,
                                           trials=6)
        assert verify_arbitrage_free(curve)

    def test_noised_copy_does_not_mutate_original(self, trained_scheme, rng):
        before = trained_scheme.model.params
        trained_scheme.model_for_budget(1.0, rng)
        assert np.array_equal(trained_scheme.model.params, before)

    def test_invalid_parameters_rejected(self, trained_scheme):
        with pytest.raises(RewardError):
            ModelPricingScheme(trained_scheme.model,
                               trained_scheme.validation, min_price=5,
                               max_price=5)


class TestLargestRemainder:
    def test_exact_sum(self):
        allocation = largest_remainder_allocation(
            100, np.array([1.0, 1.0, 1.0])
        )
        assert allocation.sum() == 100

    def test_proportionality(self):
        allocation = largest_remainder_allocation(
            100, np.array([0.5, 0.3, 0.2])
        )
        assert list(allocation) == [50, 30, 20]

    def test_zero_weights_fall_back_to_equal(self):
        allocation = largest_remainder_allocation(9, np.zeros(3))
        assert allocation.sum() == 9
        assert allocation.max() - allocation.min() <= 1

    def test_negative_weights_rejected(self):
        with pytest.raises(RewardError):
            largest_remainder_allocation(10, np.array([-1.0, 2.0]))

    def test_empty_recipients_rejected(self):
        with pytest.raises(RewardError):
            largest_remainder_allocation(10, np.array([]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6),
           st.lists(st.floats(0, 100), min_size=1, max_size=12))
    def test_exact_sum_property(self, pool, weights):
        allocation = largest_remainder_allocation(pool, np.array(weights))
        assert allocation.sum() == pool
        assert np.all(allocation >= 0)


class TestDistribution:
    def test_full_split(self):
        split = distribute_rewards(
            1000, {"0xa": 0.5, "0xb": 0.5}, ["0xe"], infra_share=0.1,
        )
        assert split.provider_payouts == {"0xa": 450, "0xb": 450}
        assert split.executor_payouts == {"0xe": 100}
        assert split.total == 1000

    def test_no_executors_means_no_infra_cut(self):
        split = distribute_rewards(1000, {"0xa": 1.0}, [], infra_share=0.1)
        assert split.provider_payouts == {"0xa": 1000}

    def test_payout_of_combines_roles(self):
        split = distribute_rewards(
            100, {"0xa": 1.0}, ["0xa"], infra_share=0.1,
        )
        assert (split.provider_payouts["0xa"]
                + split.executor_payouts["0xa"]) == 100

    def test_weights_normalized(self):
        split = distribute_rewards(100, {"0xa": 10.0, "0xb": 30.0}, [])
        assert split.provider_payouts == {"0xa": 25, "0xb": 75}

    def test_empty_providers_rejected(self):
        with pytest.raises(RewardError):
            distribute_rewards(100, {}, [])

    def test_invalid_infra_share_rejected(self):
        with pytest.raises(RewardError):
            distribute_rewards(100, {"0xa": 1.0}, [], infra_share=1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6),
           st.dictionaries(st.text(min_size=1, max_size=6),
                           st.floats(0, 10), min_size=1, max_size=8),
           st.integers(0, 4))
    def test_conservation_property(self, pool, weights, executor_count):
        executors = [f"0xe{i}" for i in range(executor_count)]
        split = distribute_rewards(pool, weights, executors,
                                   infra_share=0.15)
        total = (sum(split.provider_payouts.values())
                 + sum(split.executor_payouts.values()))
        assert total == pool


class TestNormalizeWeightsBps:
    def test_sums_exactly_to_bps(self):
        weights = {"a": 0.123, "b": 0.456, "c": 0.421}
        shares = normalize_weights_bps(weights)
        assert sum(shares.values()) == WEIGHT_BPS
        assert set(shares) == set(weights)

    def test_fair_remainder_distribution(self):
        # Seven equal contributors: 10_000 / 7 = 1428.57…  The old
        # round-then-dump loop gave the first six round(1428.57) = 1429
        # (8574 total) and dumped 1426 on the lexicographically-last key —
        # a systematic 3-unit skew.  Largest-remainder keeps every share
        # within one unit of every other.
        weights = {f"p{i}": 1.0 for i in range(7)}
        shares = normalize_weights_bps(weights)
        assert sum(shares.values()) == WEIGHT_BPS
        assert max(shares.values()) - min(shares.values()) <= 1

    def test_proportionality_preserved(self):
        weights = {"small": 1.0, "big": 3.0}
        shares = normalize_weights_bps(weights)
        assert shares == {"small": 2500, "big": 7500}

    def test_custom_total(self):
        shares = normalize_weights_bps({"x": 2.0, "y": 1.0}, total=100)
        assert sum(shares.values()) == 100
        assert shares["x"] == 67 and shares["y"] == 33

    def test_empty_rejected(self):
        with pytest.raises(RewardError):
            normalize_weights_bps({})

    @given(st.dictionaries(st.text(min_size=1, max_size=8),
                           st.floats(min_value=0.0, max_value=1e6,
                                     allow_nan=False),
                           min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_always_sums_to_total(self, weights):
        shares = normalize_weights_bps(weights)
        assert sum(shares.values()) == WEIGHT_BPS
        assert all(share >= 0 for share in shares.values())
