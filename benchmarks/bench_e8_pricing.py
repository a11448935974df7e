"""E8 (Section IV-A): model-based pricing with noise injection.

Reproduces the pricing behavior of Chen et al. as the paper describes it:
"the larger the buyer's budget, the smaller the injected noise variance and
the greater the accuracy".  Reported: the full price/noise/accuracy curve
plus an arbitrage-freeness check.
"""

from __future__ import annotations

import numpy as np

from repro.bench import Experiment, format_table, higher_is_better, info
from repro.ml.datasets import make_iot_activity, train_test_split
from repro.ml.models import SoftmaxRegressionModel
from repro.rewards.pricing import ModelPricingScheme, verify_arbitrage_free

PRICES = [1, 2, 4, 8, 16, 32, 64, 128]


def run_bench(quick: bool = False) -> dict:
    """Train the priced model and sweep the seeded price curve."""
    rng = np.random.default_rng(20260705)
    samples = 1000 if quick else 2000
    trials = 8 if quick else 16
    prices = [1, 8, 32, 128] if quick else PRICES

    data = make_iot_activity(samples, rng)
    train, validation = train_test_split(data, 0.3, rng)
    model = SoftmaxRegressionModel(6, 5)
    model.train_steps(train.features, train.targets, 500, 0.3, 32, rng)
    optimal_score = model.score(validation.features, validation.targets)

    scheme = ModelPricingScheme(model, validation, min_price=1.0,
                                max_price=128.0, base_noise_std=2.0)
    curve = scheme.price_curve(prices, rng, trials=trials)

    rows = [
        [f"{tier.price:.0f}", f"{tier.noise_std:.4f}",
         f"{tier.expected_score:.3f}"]
        for tier in curve
    ]
    lines = format_table(["price", "noise std", "expected accuracy"], rows)
    lines.append("")
    lines.append(f"optimal (undegraded) accuracy: {optimal_score:.3f}")
    lines.append(f"arbitrage-free: {verify_arbitrage_free(curve)}")
    metrics = {
        "optimal_score": higher_is_better(optimal_score),
        "top_tier_score": higher_is_better(curve[-1].expected_score),
        "cheapest_tier_score": info(curve[0].expected_score),
        "cheapest_tier_noise_std": info(curve[0].noise_std),
    }
    claims = {
        "arbitrage_free": verify_arbitrage_free(curve),
        # The cheapest tier is clearly degraded; the top tier exact.
        "cheapest_tier_degraded":
            curve[0].expected_score < optimal_score - 0.1,
        "top_tier_exact": (curve[-1].noise_std == 0.0
                           and abs(curve[-1].expected_score - optimal_score)
                           <= 1e-9),
    }
    return {"metrics": metrics, "lines": lines, "claims": claims}


EXPERIMENT = Experiment("E8", "model-based pricing curve", run_bench)
