"""Reward schemes (paper Section IV-A).

Shapley-value data valuation (exact, Monte-Carlo and truncated-MC),
model-based pricing with noise injection, and exact-sum reward
distribution across providers and infrastructure actors.
"""

from repro.rewards.economics import (
    ExecutorCostModel,
    ViabilityAnalysis,
)
from repro.rewards.distribution import (
    RewardSplit,
    distribute_rewards,
    largest_remainder_allocation,
)
from repro.rewards.pricing import (
    ModelPricingScheme,
    PriceTier,
    verify_arbitrage_free,
)
from repro.rewards.shapley import (
    CachedValueFunction,
    DataValuationTask,
    exact_shapley,
    leave_one_out,
    monte_carlo_shapley,
    normalize_to_payouts,
    truncated_monte_carlo_shapley,
)

__all__ = [
    "ExecutorCostModel",
    "ViabilityAnalysis",
    "RewardSplit",
    "distribute_rewards",
    "largest_remainder_allocation",
    "ModelPricingScheme",
    "PriceTier",
    "verify_arbitrage_free",
    "CachedValueFunction",
    "DataValuationTask",
    "exact_shapley",
    "leave_one_out",
    "monte_carlo_shapley",
    "normalize_to_payouts",
    "truncated_monte_carlo_shapley",
]
