"""What a long-lived marketplace keeps per session: nothing that grows.

One process serves session after session on one chain, so anything a
session leaves behind in process-wide state is a ceiling on how many it
can serve.  Pinned flat here: the metrics registry (no label may carry a
session's identity), the chain observer's block records and the tracer's
finished spans (tails; sinks get every one), and the lifecycle events
alive in the process (the marketplace keeps no event store: a session's
events live in its own trail and go when it goes).  A marketplace that is
dropped goes too, by reference counting alone: nothing it hooks into
holds it strongly, so no pass of the cyclic collector is needed.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import telemetry
from repro.chain import observe
from repro.core import FaultKind, FaultPlan, LifecycleEvent, run_with_faults
from repro.core.aggregates import AggregateKind, AggregateSpec
from repro.storage.semantic import ConceptRequirement
from tests.core.test_resilience import build_market, spec

RECORDS_KEPT = 8


def aggregate_session(market, consumer, index: int) -> None:
    session = market.run_aggregate_workload(
        consumer, f"flat-agg-{index}", ConceptRequirement("physiological"),
        AggregateSpec(AggregateKind.MEAN, field_index=3),
        reward_pool=10_000, min_providers=1, min_samples=1,
        required_confirmations=1,
    )
    assert session.ctx.audit.clean


def crashed_session(market, consumer, index: int) -> None:
    session = run_with_faults(
        market, consumer, spec(f"flat-crash-{index}"),
        FaultPlan.single(FaultKind.CRASH_EXECUTE, target="e1"))
    assert session.outcome == "settled_degraded"


def registry_children() -> int:
    return sum(1 for metric in telemetry.REGISTRY.collect()
               for _ in metric.children())


def live_events() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects()
               if isinstance(obj, LifecycleEvent))


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
        kept[index] = (registry_children(), len(observer.records),
                       len(telemetry.tracer().finished), live_events())
    assert kept[3] == kept[12]
    assert kept[12][1] == RECORDS_KEPT
    assert kept[12][2] == telemetry.tracing.KEPT_SPANS
    assert list(observer.records) == delivered[-RECORDS_KEPT:]
    assert len(delivered) == market.chain.height - height_before


def dropped_chain(run_session) -> weakref.ref:
    """A weak reference to the chain of a marketplace that ran one
    session and has since been dropped."""
    market, consumer = build_market()
    run_session(market, consumer, 0)
    return weakref.ref(market.chain)


@pytest.mark.parametrize("run_session", [aggregate_session, crashed_session])
def test_a_dropped_marketplace_is_freed_by_reference_counting(run_session):
    gc.collect()
    gc.disable()
    try:
        assert dropped_chain(run_session)() is None
    finally:
        gc.enable()


def test_the_tracer_outlives_a_dropped_marketplace():
    """Its clock and finish hook fall back to the tracer's own."""
    assert dropped_chain(aggregate_session)() is None
    with telemetry.tracer().span("after-the-marketplace") as span:
        pass
    assert (span.start_sim, span.end_sim) == (0.0, 0.0)
