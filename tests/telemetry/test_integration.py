"""Spans and metrics through a real marketplace run (the tentpole wiring)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.core import (
    LIFECYCLE_PHASES,
    Marketplace,
    MLTrainingKind,
    ModelSpec,
    TrainingSpec,
    WorkloadSession,
    WorkloadSpec,
)
from repro.errors import MatchFailure
from repro.ml.datasets import (
    make_iot_activity,
    split_dirichlet,
    train_test_split,
)
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation
from repro.telemetry.exporters import spans_from_events
from repro.telemetry.tracing import build_span_tree
from tests.telemetry.exposition_oracle import metric_named, series_total


def small_spec(workload_id: str, **overrides) -> WorkloadSpec:
    defaults = dict(
        workload_id=workload_id,
        requirement=ConceptRequirement("physiological"),
        model=ModelSpec(family="softmax", num_features=6, num_classes=5),
        training=TrainingSpec(steps=30, learning_rate=0.3),
        reward_pool=100_000,
        min_providers=2,
        min_samples=50,
        required_confirmations=1,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


@pytest.fixture(scope="module")
def completed_run():
    telemetry.reset()
    rng = np.random.default_rng(77)
    data = make_iot_activity(500, rng)
    train, validation = train_test_split(data, 0.25, rng)
    parts = split_dirichlet(train, 3, 1.0, rng, min_samples=10)
    market = Marketplace(seed=23)
    for index, part in enumerate(parts):
        market.add_provider(f"u{index}", part,
                            SemanticAnnotation("heart_rate", {}))
    consumer = market.add_consumer("c", validation=validation)
    market.add_executor("e0")
    session = WorkloadSession(market, consumer,
                              MLTrainingKind(small_spec("wl-spans"))).run()
    return market, consumer, session, session.trail


class TestLifecycleSpans:
    def test_all_nine_phases_have_spans(self, completed_run):
        market, _, session, trail = completed_run
        spans = spans_from_events(trail)
        phase_spans = {s.name for s in spans
                       if s.name.startswith("lifecycle.phase.")}
        assert phase_spans == {
            f"lifecycle.phase.{phase.name}" for phase in LIFECYCLE_PHASES
        }

    def test_phase_spans_nest_under_session_root(self, completed_run):
        market, _, session, trail = completed_run
        spans = spans_from_events(trail)
        roots, children = build_span_tree(spans)
        session_roots = [r for r in roots if r.name == "lifecycle.session"]
        assert len(session_roots) == 1
        root = session_roots[0]
        kid_names = [k.name for k in children[root.span_id]]
        assert kid_names == [
            f"lifecycle.phase.{phase.name}" for phase in LIFECYCLE_PHASES
        ]

    def test_children_sim_durations_sum_within_parent(self, completed_run):
        market, _, session, trail = completed_run
        spans = spans_from_events(trail)
        roots, children = build_span_tree(spans)
        # Acceptance criterion: for every span with children, the children's
        # sim durations sum to at most the parent's.
        for span in spans:
            kids = children.get(span.span_id, [])
            if kids:
                assert sum(k.sim_duration for k in kids) <= \
                    span.sim_duration + 1e-9, span.name

    def test_root_span_carries_gas_attribute(self, completed_run):
        market, _, session, trail = completed_run
        (root,) = [s for s in spans_from_events(trail)
                   if s.name == "lifecycle.session"]
        assert root.attributes["gas_used"] == session.gas_used
        assert root.attributes["workload_id"] == "wl-spans"

    def test_chain_spans_nest_inside_phases(self, completed_run):
        market, _, session, trail = completed_run
        spans = spans_from_events(trail)
        by_id = {s.span_id: s for s in spans}
        mined = [s for s in spans if s.name == "chain.mine_block"]
        assert len(mined) == session.blocks_mined
        for span in mined:
            parent = by_id[span.parent_id]
            assert parent.name.startswith("lifecycle.phase.")

    def test_global_registry_saw_the_run(self, completed_run):
        registry = telemetry.REGISTRY
        for name in ("pds2_chain_blocks_mined_total", "pds2_crypto_sign_total",
                     "pds2_storage_ops_total"):
            assert series_total(metric_named(registry, name)) > 0
        assert metric_named(registry, "pds2_tee_attestations_total").labels(
            outcome="ok").value > 0


class TestFailurePathSpans:
    def test_failed_phase_span_marked_error(self, completed_run):
        market, consumer, *_ = completed_run
        # An unmatchable requirement fails in the match phase.
        spec = small_spec("wl-span-fail",
                          requirement=ConceptRequirement("motion"))
        session = WorkloadSession(market, consumer,
                                  MLTrainingKind(spec)).run()
        assert isinstance(session.failure, MatchFailure)
        spans = spans_from_events(session.trail)
        by_name = {s.name: s for s in spans}
        match_span = by_name["lifecycle.phase.match"]
        assert match_span.status == "error"
        assert "MatchFailure" in match_span.error
        root = by_name["lifecycle.session"]
        assert root.status == "error"
        assert root.error == match_span.error
        # Phases never reached have no spans; the completed deploy is ok.
        assert by_name["lifecycle.phase.deploy"].status == "ok"
        assert "lifecycle.phase.execute" not in by_name
        # The tree still nests: the failed phase hangs off the session root.
        assert match_span.parent_id == root.span_id

    def test_tracer_stack_unwinds_after_failure(self, completed_run):
        market, consumer, *_ = completed_run
        assert market.tracer.current is None
