"""Differentially private SGD (Abadi et al. style).

Per-example gradient clipping plus calibrated Gaussian noise, with privacy
tracked by the :class:`~repro.privacy.accountant.RDPAccountant`.  This is
the mitigation Section IV-D proposes for training-time privacy leaks, and
the treatment arm of experiment E11 (membership-inference advantage versus
epsilon).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PrivacyError
from repro.ml.models import Model
from repro.privacy.accountant import RDPAccountant


@dataclass
class DPSGDConfig:
    """DP-SGD hyperparameters.

    ``noise_multiplier`` is the ratio sigma / clip_norm; epsilon at a given
    delta follows from it, the sampling rate, and the step count.
    """

    clip_norm: float = 1.0
    noise_multiplier: float = 1.0
    learning_rate: float = 0.1
    batch_size: int = 32
    steps: int = 200

    def __post_init__(self) -> None:
        if self.clip_norm <= 0:
            raise PrivacyError("clip norm must be positive")
        if self.noise_multiplier < 0:
            raise PrivacyError("noise multiplier must be non-negative")
        if self.batch_size < 1 or self.steps < 1:
            raise PrivacyError("batch size and steps must be >= 1")


@dataclass
class DPSGDResult:
    """Training outcome plus the privacy bill."""

    epsilon: float
    delta: float
    steps: int
    mean_clip_fraction: float  # fraction of per-example grads that hit the clip


#: The delta of every (epsilon, delta) bill this module reports.
DELTA = 1e-5
#: Noise multipliers :func:`noise_multiplier_for_epsilon` searches between.
NOISE_SEARCH_RANGE = (0.05, 64.0)


def clip_gradients(per_example: np.ndarray, clip_norm: float) -> tuple[np.ndarray, float]:
    """Scale each row to L2 norm <= clip_norm; returns (clipped, hit rate)."""
    norms = np.linalg.norm(per_example, axis=1, keepdims=True)
    factors = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-12))
    clipped = per_example * factors
    hit_fraction = float(np.mean(norms.ravel() > clip_norm))
    return clipped, hit_fraction


def train_dpsgd(model: Model, features: np.ndarray, targets: np.ndarray,
                config: DPSGDConfig, rng: np.random.Generator) -> DPSGDResult:
    """Train ``model`` in place with DP-SGD and return the (eps, delta) bill.

    Per-example gradients are obtained by calling the model's ``gradient``
    on single examples — O(batch) model evaluations per step, which is fine
    at the linear/MLP scale this reproduction uses.

    With ``noise_multiplier == 0`` the function degrades to plain clipped
    SGD and reports ``epsilon = inf`` (the no-DP control arm).
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets)
    n = len(features)
    if n == 0:
        raise PrivacyError("cannot train on an empty dataset")
    batch = min(config.batch_size, n)
    sampling_rate = batch / n
    accountant = RDPAccountant()
    clip_hits = []
    for _ in range(config.steps):
        index = rng.choice(n, size=batch, replace=False)
        per_example = np.stack([
            model.gradient(features[i:i + 1], targets[i:i + 1])
            for i in index
        ])
        clipped, hit = clip_gradients(per_example, config.clip_norm)
        clip_hits.append(hit)
        grad = clipped.sum(axis=0)
        if config.noise_multiplier > 0:
            sigma = config.noise_multiplier * config.clip_norm
            grad = grad + rng.normal(0.0, sigma, grad.shape)
        grad /= batch
        model.set_params(model.params - config.learning_rate * grad)
        if config.noise_multiplier > 0:
            accountant.step(config.noise_multiplier, sampling_rate)
    if config.noise_multiplier > 0:
        epsilon = accountant.get_epsilon(DELTA)
    else:
        epsilon = float("inf")
    return DPSGDResult(
        epsilon=epsilon,
        delta=DELTA,
        steps=config.steps,
        mean_clip_fraction=float(np.mean(clip_hits)),
    )


def noise_multiplier_for_epsilon(target_epsilon: float, sampling_rate: float,
                                 steps: int) -> float:
    """Binary-search the noise multiplier hitting ``target_epsilon``.

    The epsilon reported by the RDP accountant is monotone decreasing in the
    noise multiplier, so bisection converges; raises when the target is
    unreachable inside :data:`NOISE_SEARCH_RANGE`.
    """
    if target_epsilon <= 0:
        raise PrivacyError("target epsilon must be positive")

    def epsilon_of(noise: float) -> float:
        accountant = RDPAccountant()
        accountant.step(noise, sampling_rate, steps=steps)
        return accountant.get_epsilon(DELTA)

    lower, upper = NOISE_SEARCH_RANGE
    if epsilon_of(upper) > target_epsilon:
        raise PrivacyError("target epsilon unreachable even at maximum noise")
    if epsilon_of(lower) < target_epsilon:
        return lower
    for _ in range(80):
        mid = (lower + upper) / 2.0
        if epsilon_of(mid) > target_epsilon:
            lower = mid
        else:
            upper = mid
    return upper
