"""Privacy accounting: budget tracking and composition.

An executor running several mechanisms on the same providers' data must
bound the *total* privacy loss.  :class:`PrivacyAccountant` enforces an
(epsilon, delta) budget under basic composition; :class:`RDPAccountant`
implements Rényi-DP accounting for the subsampled Gaussian mechanism, which
is what DP-SGD needs to report meaningful epsilons.

The subsampled-Gaussian RDP bound used here is the standard practical
approximation ``rdp(alpha) ~= q^2 * alpha / sigma^2`` (tight for small
sampling rate ``q`` and moderate alpha), evaluated over a grid of orders and
converted with ``epsilon = min_alpha rdp(alpha) + log(1/delta)/(alpha-1)``.
It matches the moments-accountant shape within a small constant for the
regimes the benchmarks use; EXPERIMENTS.md records it as an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import PrivacyBudgetExceededError, PrivacyError

#: Default Rényi order grid (the set used by common DP libraries).
DEFAULT_ORDERS = tuple([1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0,
                        10.0, 12.0, 16.0, 20.0, 32.0, 64.0, 128.0])


@dataclass
class SpendRecord:
    """One charged mechanism invocation."""

    label: str
    epsilon: float
    delta: float


@dataclass
class PrivacyAccountant:
    """Tracks cumulative (epsilon, delta) under basic composition."""

    epsilon_budget: float
    delta_budget: float
    spent_epsilon: float = 0.0
    spent_delta: float = 0.0
    history: list[SpendRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.epsilon_budget <= 0 or not 0 <= self.delta_budget < 1:
            raise PrivacyError("invalid privacy budget")

    @property
    def remaining_epsilon(self) -> float:
        return max(0.0, self.epsilon_budget - self.spent_epsilon)

    @property
    def remaining_delta(self) -> float:
        return max(0.0, self.delta_budget - self.spent_delta)

    def can_spend(self, epsilon: float, delta: float = 0.0) -> bool:
        """True when a charge of (epsilon, delta) fits the budget."""
        return (self.spent_epsilon + epsilon <= self.epsilon_budget + 1e-12
                and self.spent_delta + delta <= self.delta_budget + 1e-12)

    def spend(self, epsilon: float, delta: float = 0.0,
              label: str = "mechanism") -> None:
        """Charge a mechanism, raising when the budget would be exceeded."""
        if epsilon < 0 or delta < 0:
            raise PrivacyError("cannot spend negative privacy")
        if not self.can_spend(epsilon, delta):
            raise PrivacyBudgetExceededError(
                f"spending ({epsilon}, {delta}) would exceed the budget "
                f"({self.remaining_epsilon:.4f}, {self.remaining_delta:.2e} "
                "remaining)"
            )
        self.spent_epsilon += epsilon
        self.spent_delta += delta
        self.history.append(SpendRecord(label=label, epsilon=epsilon,
                                        delta=delta))


def advanced_composition_epsilon(per_step_epsilon: float, steps: int,
                                 delta_prime: float) -> float:
    """Total epsilon of ``steps`` eps-DP mechanisms (advanced composition).

    Dwork-Rothblum-Vadhan: ``eps_total = eps * sqrt(2k ln(1/delta')) +
    k * eps * (e^eps - 1)``, at an extra delta' failure probability.
    """
    if per_step_epsilon <= 0 or steps < 1 or not 0 < delta_prime < 1:
        raise PrivacyError("invalid advanced-composition arguments")
    eps = per_step_epsilon
    return (eps * math.sqrt(2.0 * steps * math.log(1.0 / delta_prime))
            + steps * eps * (math.exp(eps) - 1.0))


class RDPAccountant:
    """Rényi-DP accountant for the subsampled Gaussian mechanism."""

    def __init__(self):
        self._rdp = [0.0] * len(DEFAULT_ORDERS)
        self.steps_recorded = 0

    def step(self, noise_multiplier: float, sampling_rate: float,
             steps: int = 1) -> None:
        """Record ``steps`` subsampled-Gaussian steps.

        ``noise_multiplier`` is sigma/clip-norm; ``sampling_rate`` the batch
        fraction q.
        """
        if noise_multiplier <= 0:
            raise PrivacyError("noise multiplier must be positive")
        if not 0 < sampling_rate <= 1:
            raise PrivacyError("sampling rate must be in (0, 1]")
        if steps < 1:
            raise PrivacyError("steps must be >= 1")
        q = sampling_rate
        sigma = noise_multiplier
        for index, alpha in enumerate(DEFAULT_ORDERS):
            if q == 1.0:
                rdp = alpha / (2.0 * sigma**2)
            else:
                rdp = (q**2) * alpha / (sigma**2)
            self._rdp[index] += rdp * steps
        self.steps_recorded += steps

    def get_epsilon(self, delta: float) -> float:
        """Best epsilon over the order grid at the target delta."""
        if not 0 < delta < 1:
            raise PrivacyError("delta must be in (0, 1)")
        candidates = [
            rdp + math.log(1.0 / delta) / (alpha - 1.0)
            for alpha, rdp in zip(DEFAULT_ORDERS, self._rdp)
        ]
        return min(candidates)
