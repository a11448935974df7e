"""What a long-lived marketplace keeps per session: nothing that grows.

One process serves session after session on one chain, so anything a
session leaves behind in process-wide state is a ceiling on how many it
can serve.  Two such stores are pinned flat here: the metrics registry
(no label may carry a session's identity) and the chain observer's block
records (a tail; sinks get every record).
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.chain import observe
from repro.core import FaultKind, FaultPlan, run_with_faults
from repro.core.aggregates import AggregateKind, AggregateSpec
from repro.storage.semantic import ConceptRequirement
from tests.core.test_resilience import build_market, spec

RECORDS_KEPT = 8


def aggregate_session(market, consumer, index: int) -> None:
    _, audit, _ = market.run_aggregate_workload(
        consumer, f"flat-agg-{index}", ConceptRequirement("physiological"),
        AggregateSpec(AggregateKind.MEAN, field_index=3),
        reward_pool=10_000,
    )
    assert audit.clean


def crashed_session(market, consumer, index: int) -> None:
    result = run_with_faults(
        market, consumer, spec(f"flat-crash-{index}"),
        FaultPlan.single(FaultKind.CRASH_EXECUTE, target="e1"))
    assert result.outcome == "settled_degraded"


def registry_children() -> int:
    return sum(1 for metric in telemetry.REGISTRY.collect()
               for _ in metric.children())


@pytest.mark.parametrize("run_session", [aggregate_session, crashed_session])
def test_process_state_is_flat_across_sessions(run_session, monkeypatch):
    monkeypatch.setattr(observe, "MAX_BLOCK_RECORDS", RECORDS_KEPT)
    market, consumer = build_market()
    observer = market.chain.observer
    height_before = market.chain.height
    delivered: list[dict] = []
    observer.sinks.append(delivered.append)
    kept = {}
    for index in range(1, 13):
        run_session(market, consumer, index)
        kept[index] = (registry_children(), len(observer.records))
    assert kept[3] == kept[12]
    assert kept[12][1] == RECORDS_KEPT
    assert list(observer.records) == delivered[-RECORDS_KEPT:]
    assert len(delivered) == market.chain.height - height_before
