"""Privacy accounting for DP-SGD.

An executor training on providers' data must bound the *total* privacy
loss of its noisy steps.  :class:`RDPAccountant` implements Rényi-DP
accounting for the subsampled Gaussian mechanism, which is what DP-SGD
needs to report meaningful epsilons.

The subsampled-Gaussian RDP bound used here is the standard practical
approximation ``rdp(alpha) ~= q^2 * alpha / sigma^2`` (tight for small
sampling rate ``q`` and moderate alpha), evaluated over a grid of orders and
converted with ``epsilon = min_alpha rdp(alpha) + log(1/delta)/(alpha-1)``.
It matches the moments-accountant shape within a small constant for the
regimes the benchmarks use; EXPERIMENTS.md records it as an approximation.
"""

from __future__ import annotations

import math

from repro.errors import PrivacyError

#: Default Rényi order grid (the set used by common DP libraries).
DEFAULT_ORDERS = tuple([1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0,
                        10.0, 12.0, 16.0, 20.0, 32.0, 64.0, 128.0])


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
