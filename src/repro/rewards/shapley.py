"""Shapley-value data valuation (paper Section IV-A).

The paper proposes Shapley values to split a workload's reward among data
providers, and flags the open challenge: exact computation is exponential.
This module implements the full menu the literature offers:

* :func:`exact_shapley` — the 2^n enumeration (ground truth up to n ~ 16);
* :func:`monte_carlo_shapley` — permutation sampling (Castro et al.);
* :func:`truncated_monte_carlo_shapley` — TMC-Shapley (Ghorbani & Zou),
  which truncates permutation scans once marginal gains become negligible;
* :func:`leave_one_out` — the cheap baseline that famously mis-prices
  correlated data.

:class:`DataValuationTask` turns "train a model on a coalition of provider
datasets, score it on validation data" into a cached characteristic
function, which is how experiment E7 valuates providers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import RewardError
from repro.ml.datasets import Dataset
from repro.ml.models import Model

#: A coalition value function: frozenset of player indexes -> utility.
CharacteristicFunction = Callable[[frozenset], float]


class CachedValueFunction:
    """Memoizing wrapper: coalition evaluations are expensive (model fits)."""

    def __init__(self, value_fn: CharacteristicFunction):
        self._value_fn = value_fn
        self._cache: dict[frozenset, float] = {}
        self.evaluations = 0

    def __call__(self, coalition: frozenset) -> float:
        if coalition not in self._cache:
            self._cache[coalition] = float(self._value_fn(coalition))
            self.evaluations += 1
        return self._cache[coalition]


def exact_shapley(num_players: int,
                  value_fn: CharacteristicFunction) -> np.ndarray:
    """Exact Shapley values by complete subset enumeration.

    Cost is O(2^n * n) coalition evaluations; the exponential wall the paper
    warns about (E7 measures it).  Uses the direct weighted-marginal form

    ``phi_i = sum_{S not containing i} |S|!(n-|S|-1)!/n! [v(S+i) - v(S)]``.
    """
    if num_players < 1:
        raise RewardError("need at least one player")
    if num_players > 20:
        raise RewardError("exact Shapley beyond 20 players is infeasible")
    value = CachedValueFunction(value_fn)
    import math

    n = num_players
    factorials = [math.factorial(k) for k in range(n + 1)]
    shapley = np.zeros(n)
    for mask in range(1 << n):
        members = frozenset(
            player for player in range(n) if mask & (1 << player)
        )
        size = len(members)
        base = value(members)
        weight = factorials[size] * factorials[n - size - 1] / factorials[n]
        for player in range(n):
            if player in members:
                continue
            with_player = frozenset(members | {player})
            shapley[player] += weight * (value(with_player) - base)
    return shapley


def monte_carlo_shapley(num_players: int, value_fn: CharacteristicFunction,
                        permutations: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Permutation-sampling estimate of the Shapley values.

    Each sampled permutation contributes one marginal for every player;
    the estimate is unbiased with O(1/sqrt(permutations)) error.
    """
    if permutations < 1:
        raise RewardError("need at least one permutation")
    value = CachedValueFunction(value_fn)
    totals = np.zeros(num_players)
    for _ in range(permutations):
        order = rng.permutation(num_players)
        coalition: frozenset = frozenset()
        previous = value(coalition)
        for player in order:
            coalition = frozenset(coalition | {int(player)})
            current = value(coalition)
            totals[int(player)] += current - previous
            previous = current
    return totals / permutations


def truncated_monte_carlo_shapley(num_players: int,
                                  value_fn: CharacteristicFunction,
                                  permutations: int,
                                  rng: np.random.Generator,
                                  tolerance: float = 0.01) -> np.ndarray:
    """TMC-Shapley: permutation sampling with performance truncation.

    Once a scan's running value is within ``tolerance`` of the grand
    coalition's value, remaining players in that permutation are assigned a
    zero marginal without evaluating the model — the Ghorbani & Zou
    optimization that makes Shapley affordable for ML.
    """
    if permutations < 1:
        raise RewardError("need at least one permutation")
    value = CachedValueFunction(value_fn)
    grand = value(frozenset(range(num_players)))
    totals = np.zeros(num_players)
    truncated_marginals = 0
    total_marginals = 0
    for _ in range(permutations):
        order = rng.permutation(num_players)
        coalition: frozenset = frozenset()
        previous = value(coalition)
        truncated = False
        for player in order:
            total_marginals += 1
            if truncated:
                truncated_marginals += 1
                continue  # zero marginal, no evaluation
            coalition = frozenset(coalition | {int(player)})
            current = value(coalition)
            totals[int(player)] += current - previous
            previous = current
            if abs(grand - current) < tolerance * max(abs(grand), 1e-12):
                truncated = True
    estimates = totals / permutations
    # Stash diagnostics on the function object for benchmark reporting.
    truncated_monte_carlo_shapley.last_truncation_fraction = (  # type: ignore[attr-defined]
        truncated_marginals / max(1, total_marginals)
    )
    truncated_monte_carlo_shapley.last_evaluations = value.evaluations  # type: ignore[attr-defined]
    return estimates


def leave_one_out(num_players: int,
                  value_fn: CharacteristicFunction) -> np.ndarray:
    """The LOO baseline: v(N) - v(N minus i) for each player."""
    value = CachedValueFunction(value_fn)
    grand_set = frozenset(range(num_players))
    grand = value(grand_set)
    return np.array([
        grand - value(frozenset(grand_set - {player}))
        for player in range(num_players)
    ])


# ---------------------------------------------------------------------------
# Data valuation: coalitions of provider datasets
# ---------------------------------------------------------------------------


@dataclass
class DataValuationTask:
    """Characteristic function "train on a coalition, score on validation".

    ``v(empty)`` is the majority-class (or zero) baseline score, so Shapley
    values measure improvement over knowing nothing.  Training is
    deterministic under the task seed: every coalition trains from the same
    initialization with the same step schedule.
    """

    model_factory: Callable[[], Model]
    provider_datasets: list[Dataset]
    validation: Dataset
    train_steps: int = 200
    learning_rate: float = 0.2
    batch_size: int = 32
    seed: int = 0
    _cache: dict[frozenset, float] = field(default_factory=dict, repr=False)

    @property
    def num_players(self) -> int:
        return len(self.provider_datasets)

    def _coalition_data(self, coalition: frozenset) -> tuple[np.ndarray, np.ndarray]:
        parts = [self.provider_datasets[i] for i in sorted(coalition)]
        features = np.concatenate([p.features for p in parts])
        targets = np.concatenate([p.targets for p in parts])
        return features, targets

    def _baseline_score(self) -> float:
        """Score of an untrained (zero-parameter) model — the v(empty)."""
        model = self.model_factory()
        return model.score(self.validation.features, self.validation.targets)

    def __call__(self, coalition: frozenset) -> float:
        key = frozenset(coalition)
        if key in self._cache:
            return self._cache[key]
        if not key:
            score = self._baseline_score()
        else:
            from repro.utils.rng import derive_rng

            model = self.model_factory()
            features, targets = self._coalition_data(key)
            label = "-".join(str(i) for i in sorted(key))
            model.train_steps(
                features, targets, steps=self.train_steps,
                learning_rate=self.learning_rate,
                batch_size=self.batch_size,
                rng=derive_rng(self.seed, f"valuation-{label}"),
            )
            score = model.score(self.validation.features,
                                self.validation.targets)
        self._cache[key] = float(score)
        return self._cache[key]


def normalize_to_payouts(shapley_values: np.ndarray) -> np.ndarray:
    """Convert raw Shapley values into non-negative payout fractions.

    Negative values (data that *hurt* the model) are clipped to zero — a
    provider cannot owe money — then the vector is normalized to sum to 1.
    An all-nonpositive vector yields equal shares.
    """
    values = np.maximum(np.asarray(shapley_values, dtype=float), 0.0)
    total = values.sum()
    if total <= 0:
        return np.full(len(values), 1.0 / len(values))
    return values / total
