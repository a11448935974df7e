"""Model-based pricing with noise injection (paper Section IV-A).

Chen, Koutris & Kumar propose pricing *models* instead of data: one optimal
instance is trained, and buyers with smaller budgets receive versions
degraded with Gaussian parameter noise — more budget, less noise, more
accuracy.  This module implements that scheme with the property the original
paper requires: **arbitrage-freeness**, i.e. the noise variance (and hence
expected error) is monotone non-increasing in price, so no buyer can combine
cheap models to beat an expensive one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RewardError
from repro.ml.datasets import Dataset
from repro.ml.models import Model


@dataclass(frozen=True)
class PriceTier:
    """One point on the price/quality curve."""

    price: float
    noise_std: float
    expected_score: float


@dataclass
class ModelPricingScheme:
    """Prices a trained model by Gaussian-noise degradation.

    ``noise_std(price) = base_noise_std * min_price / price``: the buyer
    paying ``min_price`` gets the noisiest version; noise decays toward
    zero as price grows to ``max_price`` (where the exact model is sold).
    """

    model: Model
    validation: Dataset
    min_price: float = 1.0
    max_price: float = 100.0
    base_noise_std: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.min_price < self.max_price:
            raise RewardError("need 0 < min_price < max_price")
        if self.base_noise_std < 0:
            raise RewardError("invalid noise parameters")

    def noise_std_for_price(self, price: float) -> float:
        """The parameter-noise standard deviation sold at ``price``."""
        if price < self.min_price:
            raise RewardError(
                f"price {price} is below the minimum {self.min_price}"
            )
        if price >= self.max_price:
            return 0.0
        return self.base_noise_std * self.min_price / price

    def model_for_budget(self, budget: float,
                         rng: np.random.Generator) -> Model:
        """A fresh noised copy of the optimal model, priced at ``budget``."""
        noise_std = self.noise_std_for_price(budget)
        instance = self.model.clone()
        if noise_std > 0:
            params = instance.params
            instance.set_params(
                params + rng.normal(0.0, noise_std, params.shape)
            )
        return instance

    def expected_score(self, price: float, rng: np.random.Generator,
                       trials: int = 16) -> float:
        """Mean validation score over ``trials`` independent noisings."""
        if trials < 1:
            raise RewardError("need at least one trial")
        scores = []
        for _ in range(trials):
            noised = self.model_for_budget(price, rng)
            scores.append(
                noised.score(self.validation.features,
                             self.validation.targets)
            )
        return float(np.mean(scores))

    def price_curve(self, prices: list[float], rng: np.random.Generator,
                    trials: int = 16) -> list[PriceTier]:
        """Evaluate the scheme at each price, enforcing monotone quality.

        Scores are estimated by Monte Carlo, so raw estimates can wiggle;
        the returned curve applies an isotonic (running-max) correction so
        the published offer is arbitrage-free by construction.
        """
        tiers: list[PriceTier] = []
        best_so_far = -np.inf
        for price in sorted(prices):
            raw = self.expected_score(price, rng, trials=trials)
            best_so_far = max(best_so_far, raw)
            tiers.append(PriceTier(
                price=float(price),
                noise_std=self.noise_std_for_price(price),
                expected_score=float(best_so_far),
            ))
        return tiers


def verify_arbitrage_free(tiers: list[PriceTier]) -> bool:
    """Check monotonicity: higher price never buys lower expected quality."""
    ordered = sorted(tiers, key=lambda tier: tier.price)
    for earlier, later in zip(ordered, ordered[1:]):
        if later.expected_score < earlier.expected_score - 1e-9:
            return False
        if later.noise_std > earlier.noise_std + 1e-9:
            return False
    return True
