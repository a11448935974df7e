"""E17 (extension, Section VI): executor economic viability.

"It is essential to evaluate the extent to which the proposed solution is
economically viable and whether the ... incentives provided to individual
players are sufficient."  Using the TEE cost model and an executor cost
structure (amortized hardware + electricity + per-job overhead), this
experiment computes, per workload class: executor profit at the default 10%
infra share, the break-even share, and revenue competitiveness versus
renting the same seconds to a cloud.
"""

from __future__ import annotations

from repro.bench import (
    Experiment,
    format_table,
    higher_is_better,
    info,
    lower_is_better,
)
from repro.rewards.economics import (
    ExecutorCostModel,
    ViabilityAnalysis,
)
from repro.tee.cost_model import mlp_profile

#: Workload classes: (name, profile, reward pool in tokens).
WORKLOADS = [
    ("small linear", mlp_profile(batch=256, features=16, hidden=[1],
                                 outputs=1), 100_000),
    ("medium MLP", mlp_profile(batch=2048, features=64, hidden=[128],
                               outputs=8), 1_000_000),
    ("large MLP", mlp_profile(batch=16384, features=128,
                              hidden=[512, 512], outputs=16), 10_000_000),
]

TOKEN_VALUE = 1e-5  # currency units per reward token
EXECUTORS = 4


def run_bench(quick: bool = False) -> dict:
    """Every workload class through the cost model (deterministic)."""
    costs = ExecutorCostModel()
    rows = []
    analyses = []
    for name, profile, pool in WORKLOADS:
        analysis = ViabilityAnalysis(
            workload=profile, reward_pool=pool, infra_share=0.10,
            num_executors=EXECUTORS, executor_costs=costs,
            token_value=TOKEN_VALUE,
        )
        analyses.append(analysis)
        rows.append([
            name,
            f"{analysis.job_seconds:.3f}",
            f"{analysis.revenue_per_executor:.4f}",
            f"{analysis.cost_per_executor:.4f}",
            f"{analysis.profit_per_executor:+.4f}",
            f"{analysis.break_even_infra_share():.4f}",
            f"{analysis.competitiveness_vs_cloud():,.0f}x",
        ])

    lines = format_table(
        ["workload", "tee s", "revenue", "cost", "profit",
         "break-even share", "vs cloud"],
        rows,
    )
    lines += [
        "",
        f"assumptions: {EXECUTORS} executors, 10% infra share, token value "
        f"{TOKEN_VALUE} units,",
        "consumer-grade TEE machine (1200 units / 3 y, 80 W @ 0.25/kWh).",
    ]
    shares = [a.break_even_infra_share() for a in analyses]
    metrics = {
        "viable_classes": higher_is_better(
            sum(1 for a in analyses if a.is_viable), threshold_pct=1.0),
        "break_even_share_large": lower_is_better(shares[2]),
        "profit_medium": higher_is_better(
            analyses[1].profit_per_executor, unit="units"),
        "competitiveness_medium": info(
            analyses[1].competitiveness_vs_cloud(), unit="x"),
    }
    claims = {
        # At these pools every class is viable with margin...
        "all_viable": all(a.is_viable for a in analyses),
        "break_even_under_infra_share": max(shares) < 0.10,
        # ...and larger workloads amortize the executor's fixed job cost
        # better (lower break-even share).
        "large_amortizes": shares[2] < shares[0],
    }
    return {"metrics": metrics, "lines": lines, "claims": claims}


EXPERIMENT = Experiment("E17", "executor economics", run_bench)
