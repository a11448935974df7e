"""E12 (Section VI): governance-layer scalability.

"As PDS2 aims to be a global, open platform, its scalability is an
important aspect."  This experiment grows the provider pool and measures
what the governance layer actually charges: total gas per workload, gas per
provider, blocks, and end-to-end wall time.  Gas should grow linearly in
the number of participants (one participation record each) over a constant
per-workload base — no superlinear term.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import Experiment, higher_is_better, info, lower_is_better
from repro.core import Marketplace, ModelSpec, TrainingSpec, WorkloadSpec
from repro.ml.datasets import (
    make_iot_activity,
    split_dirichlet,
    train_test_split,
)
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation
from reporting import format_table, report

PROVIDER_COUNTS = [8, 16, 32]


def run_market(num_providers: int):
    rng = np.random.default_rng(3000 + num_providers)
    data = make_iot_activity(max(400, 40 * num_providers), rng)
    train, validation = train_test_split(data, 0.25, rng)
    parts = split_dirichlet(train, num_providers, alpha=1.0, rng=rng,
                            min_samples=5)
    market = Marketplace(seed=5)
    for index, part in enumerate(parts):
        market.add_provider(
            f"u{index}", part, SemanticAnnotation("heart_rate", {})
        )
    consumer = market.add_consumer("lab", validation=validation)
    market.add_executor("e0")
    market.add_executor("e1")
    spec = WorkloadSpec(
        workload_id=f"e12-{num_providers}",
        requirement=ConceptRequirement("physiological"),
        model=ModelSpec(family="softmax", num_features=6, num_classes=5),
        training=TrainingSpec(steps=40, learning_rate=0.3),
        reward_pool=1_000_000,
        min_providers=num_providers // 2,
        min_samples=10,
        required_confirmations=1,
    )
    start = time.perf_counter()
    result = market.run_workload(consumer, spec)
    elapsed = time.perf_counter() - start
    return result, elapsed


def run_bench(quick: bool = False) -> dict:
    """The provider-count sweep (gas and blocks are deterministic)."""
    counts = [8, 16] if quick else PROVIDER_COUNTS
    rows = []
    total_gas = []
    gas_per_provider = []
    audits_clean = True
    for count in counts:
        result, elapsed = run_market(count)
        audits_clean = audits_clean and result.audit.clean
        per_provider = result.gas_used / count
        total_gas.append(result.gas_used)
        gas_per_provider.append(per_provider)
        rows.append([
            count, f"{result.gas_used:,}", f"{per_provider:,.0f}",
            result.blocks_mined, f"{elapsed:.1f}",
        ])

    lines = format_table(
        ["providers", "total gas", "gas/provider", "blocks", "wall s"],
        rows,
    )
    sublinear = (
        gas_per_provider[-1] <= gas_per_provider[0] * 1.10
        and total_gas[-1] < total_gas[0] * (counts[-1] / counts[0]) * 1.2
    )
    metrics = {
        "gas_total_smallest": lower_is_better(total_gas[0], unit="gas"),
        "gas_per_provider_largest": lower_is_better(gas_per_provider[-1],
                                                    unit="gas"),
        "gas_sublinear": higher_is_better(1.0 if sublinear else 0.0,
                                          threshold_pct=1.0),
        "audits_clean": higher_is_better(1.0 if audits_clean else 0.0,
                                         threshold_pct=1.0),
        "providers_largest": info(counts[-1]),
    }
    return {"metrics": metrics, "lines": lines,
            "gas_per_provider": gas_per_provider, "total_gas": total_gas,
            "counts": counts, "audits_clean": audits_clean}


EXPERIMENT = Experiment("E12", "governance gas scalability", run_bench)


def test_e12_gas_scales_linearly():
    payload = run_bench()
    report("E12", "governance gas vs marketplace size", payload["lines"])

    assert payload["audits_clean"]
    gas_per_provider = payload["gas_per_provider"]
    total_gas = payload["total_gas"]
    counts = payload["counts"]
    # Sub-linear marginal cost: per-provider gas falls (or is flat) as the
    # fixed per-workload overhead amortizes; no superlinear blow-up.
    assert gas_per_provider[-1] <= gas_per_provider[0] * 1.10
    # Total gas grows sublinearly relative to 2x provider steps.
    assert total_gas[-1] < total_gas[0] * (counts[-1] / counts[0]) * 1.2
