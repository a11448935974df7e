"""Reward distribution: splitting a workload's pool among all actors.

Section II-B requires that providers are paid for the value their data
created and that infrastructure actors (executors, validators) "be
incentivized with a share of the rewards".  This module converts valuation
fractions into exact integer token payouts:

* an ``infra_share`` fraction is carved out for executors/validators;
* the provider remainder is split proportionally to contribution weights
  (typically normalized Shapley values);
* integer rounding uses the largest-remainder method, so the payout sums
  *exactly* to the pool — no token is minted or burned by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RewardError


def largest_remainder_allocation(pool: int,
                                 fractions: np.ndarray) -> np.ndarray:
    """Split integer ``pool`` by ``fractions`` with exact-sum rounding."""
    if pool < 0:
        raise RewardError("reward pool must be non-negative")
    fractions = np.asarray(fractions, dtype=float)
    if len(fractions) == 0:
        raise RewardError("cannot allocate to zero recipients")
    if np.any(fractions < 0):
        raise RewardError("allocation fractions must be non-negative")
    total = fractions.sum()
    if total <= 0:
        fractions = np.full(len(fractions), 1.0 / len(fractions))
    else:
        fractions = fractions / total
    raw = fractions * pool
    floors = np.floor(raw).astype(int)
    shortfall = pool - int(floors.sum())
    remainders = raw - floors
    # Give the leftover units to the largest remainders (ties: lower index).
    order = np.lexsort((np.arange(len(raw)), -remainders))
    for slot in order[:shortfall]:
        floors[slot] += 1
    return floors


#: Basis points in one whole (the chain-wide weight denominator).
WEIGHT_BPS = 10_000


def normalize_weights_bps(weights: dict[str, float],
                          total: int = WEIGHT_BPS) -> dict[str, int]:
    """Normalize raw contribution weights to integer shares summing to ``total``.

    Built on :func:`largest_remainder_allocation`, so remainder units go to
    the largest fractional parts instead of being dumped on whichever key
    happens to sort last — the latter gives the lexicographically-last
    recipient a systematically skewed share.  Keys are processed in sorted
    order so the result is deterministic.
    """
    if not weights:
        raise RewardError("cannot normalize an empty weight map")
    keys = sorted(weights)
    amounts = largest_remainder_allocation(
        total, np.array([weights[key] for key in keys], dtype=float)
    )
    return {key: int(amount) for key, amount in zip(keys, amounts)}


@dataclass(frozen=True)
class RewardSplit:
    """The final payout table for one workload."""

    provider_payouts: dict[str, int]
    executor_payouts: dict[str, int]
    total: int


def distribute_rewards(pool: int, provider_weights: dict[str, float],
                       executors: list[str],
                       infra_share: float = 0.1) -> RewardSplit:
    """Compute the full payout table for one completed workload.

    ``provider_weights`` maps provider addresses to contribution weights
    (any non-negative scale — they are normalized internally).  Executors
    split the infrastructure share equally, as the paper leaves their
    pricing to the market.
    """
    if not 0 <= infra_share < 1:
        raise RewardError("infra share must be in [0, 1)")
    if not provider_weights:
        raise RewardError("at least one provider must be rewarded")
    infra_pool = int(round(pool * infra_share)) if executors else 0
    provider_pool = pool - infra_pool

    providers = sorted(provider_weights)
    weights = np.array([provider_weights[p] for p in providers])
    provider_amounts = largest_remainder_allocation(provider_pool, weights)
    provider_payouts = {
        address: int(amount)
        for address, amount in zip(providers, provider_amounts)
    }

    executor_payouts: dict[str, int] = {}
    if executors:
        amounts = largest_remainder_allocation(
            infra_pool, np.ones(len(executors))
        )
        executor_payouts = {
            address: int(amount)
            for address, amount in zip(sorted(executors), amounts)
        }
    return RewardSplit(
        provider_payouts=provider_payouts,
        executor_payouts=executor_payouts,
        total=pool,
    )
