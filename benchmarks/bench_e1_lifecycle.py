"""E1 (Fig. 1 / Fig. 2): the five-role lifecycle runs end-to-end.

Regenerates the architecture validation the paper defers to future work:
one complete workload — contract deployment, matching, attestation,
certified data submission, enclave training, quorum results, payout,
audit — measured for wall-clock latency, gas and outcome quality.
"""

from __future__ import annotations

import numpy as np

from repro.bench import Experiment, higher_is_better, info, lower_is_better
from repro.core import (
    LIFECYCLE_PHASES,
    Marketplace,
    ModelSpec,
    TrainingSpec,
    WorkloadSpec,
    phase_gas_totals,
    phase_wall_times,
)
from repro.ml.datasets import (
    make_iot_activity,
    split_dirichlet,
    train_test_split,
)
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation
from reporting import format_table, report

TITLE = "five-role lifecycle, end to end"


def build_market(num_providers: int, num_executors: int, seed: int = 7):
    rng = np.random.default_rng(1000 + num_providers)
    data = make_iot_activity(200 * num_providers, rng)
    train, validation = train_test_split(data, 0.25, rng)
    parts = split_dirichlet(train, num_providers, alpha=1.0, rng=rng,
                            min_samples=15)
    market = Marketplace(seed=seed)
    for index, part in enumerate(parts):
        market.add_provider(
            f"user{index}", part,
            SemanticAnnotation("heart_rate", {"rate_hz": 1.0}),
        )
    consumer = market.add_consumer("lab", validation=validation)
    for index in range(num_executors):
        market.add_executor(f"exec{index}")
    return market, consumer


def har_spec(workload_id: str, confirmations: int) -> WorkloadSpec:
    return WorkloadSpec(
        workload_id=workload_id,
        requirement=ConceptRequirement("physiological"),
        model=ModelSpec(family="softmax", num_features=6, num_classes=5),
        training=TrainingSpec(steps=120, learning_rate=0.3, batch_size=32),
        reward_pool=1_000_000,
        min_providers=4,
        min_samples=200,
        required_confirmations=confirmations,
    )


def run_bench(quick: bool = False) -> dict:
    """One full Fig. 2 lifecycle, measured and itemized per phase."""
    providers, executors = (6, 2) if quick else (8, 2)
    market, consumer = build_market(providers, executors)
    result = market.run_workload(consumer,
                                 har_spec("e1-bench", confirmations=2))
    trail = market.event_log.for_session(result.session_id)
    wall = phase_wall_times(trail)
    gas = phase_gas_totals(trail)
    rows = [
        ["providers participating", len(result.participants)],
        ["executors", len(result.executors)],
        ["active executors", len(result.active_executors)],
        ["consumer model accuracy", f"{result.consumer_score:.3f}"],
        ["reward pool fully paid", result.total_paid == 1_000_000],
        ["gas per workload", f"{result.gas_used:,}"],
        ["blocks mined", result.blocks_mined],
        ["audit clean", result.audit.clean],
        ["certificates recorded", result.audit.certificates],
    ]
    phase_rows = [
        [phase, f"{wall.get(phase, 0.0) * 1e3:.1f}", f"{gas.get(phase, 0):,}"]
        for phase in [p.name for p in LIFECYCLE_PHASES]
    ]
    lines = (format_table(["metric", "value"], rows)
             + ["", "phase timings (from the event bus):", ""]
             + format_table(["phase", "wall ms", "gas"], phase_rows))
    metrics = {
        "gas_used": lower_is_better(result.gas_used, unit="gas"),
        "blocks_mined": lower_is_better(result.blocks_mined, unit="blocks"),
        "consumer_score": higher_is_better(result.consumer_score),
        "reward_paid": info(result.total_paid, unit="tokens"),
        "providers": info(len(result.participants)),
        "audit_clean": higher_is_better(
            1.0 if result.audit.clean else 0.0, threshold_pct=1.0),
    }
    return {"metrics": metrics, "lines": lines, "result": result,
            "phase_gas": gas}


EXPERIMENT = Experiment("E1", TITLE, run_bench)


def test_e1_full_lifecycle():
    """Benchmark one full Fig. 2 lifecycle and report its vital signs."""
    payload = run_bench()
    report("E1", TITLE, payload["lines"])

    result = payload["result"]
    assert sum(payload["phase_gas"].values()) == result.gas_used
    assert result.audit.clean
    assert result.consumer_score > 0.6
    assert result.total_paid == 1_000_000
