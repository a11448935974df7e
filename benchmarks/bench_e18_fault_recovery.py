"""E18 (extension, Section VI): lifecycle survival under injected faults.

The paper leaves "feasibility testing under realistic failure" open.  This
experiment sweeps a per-actor fault rate over the full nine-phase
lifecycle — executors crash mid-execute, provider submissions are lost,
chain transactions flake — and compares the recovery engine
(``repro.core.resilience``) against the fail-fast baseline.  Two axes:
what fraction of sessions still settle, and what the surviving runs pay
in extra gas for their retries and re-matches.
"""

from __future__ import annotations

import numpy as np

from repro.bench import Experiment, higher_is_better, info, lower_is_better
from repro.core import (
    FaultPlan,
    Marketplace,
    ModelSpec,
    TrainingSpec,
    WorkloadSpec,
    run_with_faults,
)
from repro.ml.datasets import (
    make_iot_activity,
    split_dirichlet,
    train_test_split,
)
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation
from reporting import format_table, report

FAULT_RATES = (0.0, 0.15, 0.35)
RUNS_PER_CELL = 4
N_PROVIDERS = 3
N_EXECUTORS = 3


def build_market(seed: int):
    rng = np.random.default_rng(seed)
    data = make_iot_activity(600, rng)
    train, validation = train_test_split(data, 0.25, rng)
    parts = split_dirichlet(train, N_PROVIDERS, 1.0, rng, min_samples=15)
    market = Marketplace(seed=seed)
    providers = [
        market.add_provider(f"u{index}", part,
                            SemanticAnnotation("heart_rate", {}))
        for index, part in enumerate(parts)
    ]
    consumer = market.add_consumer("c", validation=validation)
    executors = [market.add_executor(f"e{index}")
                 for index in range(N_EXECUTORS)]
    return market, consumer, [p.name for p in providers], \
        [e.name for e in executors]


def make_spec(workload_id: str) -> WorkloadSpec:
    return WorkloadSpec(
        workload_id=workload_id,
        requirement=ConceptRequirement("physiological"),
        model=ModelSpec(family="softmax", num_features=6, num_classes=5),
        training=TrainingSpec(steps=30, learning_rate=0.3),
        reward_pool=600_000,
        # Recovery may legitimately shed one provider and still settle.
        min_providers=N_PROVIDERS - 1,
        min_samples=50,
        required_confirmations=2,
    )


def run_cell(rate: float, recover: bool, runs: int = RUNS_PER_CELL):
    """One sweep cell: ``runs`` independent seeded runs."""
    settled = degraded = 0
    gas: list[int] = []
    recoveries = faults = 0
    for run in range(runs):
        seed = 1800 + run
        market, consumer, provider_names, executor_names = build_market(seed)
        plan = FaultPlan.sample(rate, executor_names, provider_names,
                                seed=seed)
        result = run_with_faults(
            market, consumer, make_spec(f"e18-{rate}-{run}"), plan,
            recover=recover,
        )
        faults += len(result.injected)
        recoveries += len(result.recoveries)
        if result.completed:
            settled += 1
            gas.append(result.gas_used)
            if result.degraded:
                degraded += 1
    return settled, degraded, gas, recoveries, faults


def run_bench(quick: bool = False) -> dict:
    """The fault-rate sweep, both engines (seeded, deterministic)."""
    rates = (0.0, 0.35) if quick else FAULT_RATES
    runs = 2 if quick else RUNS_PER_CELL
    rows = []
    clean_gas: dict[bool, float] = {}
    settled_by: dict[tuple[bool, float], int] = {}
    for recover in (False, True):
        for rate in rates:
            settled, degraded, gas, recoveries, faults = run_cell(
                rate, recover, runs=runs,
            )
            settled_by[(recover, rate)] = settled
            mean_gas = sum(gas) / len(gas) if gas else 0.0
            if rate == 0.0:
                clean_gas[recover] = mean_gas
            overhead = (mean_gas / clean_gas[recover] - 1.0
                        if clean_gas.get(recover) and mean_gas else 0.0)
            rows.append([
                f"{rate:.2f}",
                "on" if recover else "off",
                f"{settled}/{runs}",
                degraded,
                faults,
                recoveries,
                f"{mean_gas:,.0f}" if mean_gas else "-",
                f"{overhead:+.1%}" if mean_gas else "-",
            ])

    lines = format_table(
        ["fault rate", "recovery", "settled", "degraded", "faults",
         "recoveries", "mean gas", "gas overhead"],
        rows,
    )
    lines += [
        "",
        f"{runs} seeded runs per cell; faults drawn per actor by",
        "FaultPlan.sample (executor mid-execute crash, dropped provider",
        "submission, transient chain rejection).  Gas overhead is relative",
        "to the same engine's fault-free mean.",
    ]
    high = rates[-1]
    metrics = {
        "settled_with_recovery_high": higher_is_better(
            settled_by[(True, high)], threshold_pct=1.0),
        "recovery_advantage": higher_is_better(
            settled_by[(True, high)] - settled_by[(False, high)],
            threshold_pct=1.0),
        "mean_gas_clean": lower_is_better(clean_gas[True], unit="gas"),
        "settled_fail_fast_high": info(settled_by[(False, high)]),
    }
    return {"metrics": metrics, "lines": lines, "rows": rows,
            "settled_by": settled_by, "rates": rates, "runs": runs}


EXPERIMENT = Experiment("E18", "lifecycle fault recovery sweep", run_bench)


def test_e18_fault_recovery_sweep():
    payload = run_bench()
    report("E18", "lifecycle fault recovery sweep", payload["lines"])

    settled_by = payload["settled_by"]
    high = payload["rates"][-1]
    # The recovery engine's reason to exist: at the highest fault rate it
    # settles strictly more sessions than the fail-fast baseline.
    assert settled_by[(True, high)] > settled_by[(False, high)]
    # At rate 0 both engines are byte-identical: no faults, no overhead.
    rows = payload["rows"]
    assert rows[0][6] == rows[len(payload["rates"])][6]
