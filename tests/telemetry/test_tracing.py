"""Tests for the span tracer: nesting, clocks, error status, tree building."""

from __future__ import annotations

import pytest

from repro.telemetry import tracing
from repro.telemetry.tracing import Span, Tracer, build_span_tree


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def tracer(clock) -> Tracer:
    return Tracer(sim_clock=clock)


class TestSpanNesting:
    def test_parent_child_linkage(self, tracer):
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert tracer.depth == 2
        assert tracer.depth == 0
        assert outer.parent_id == ""

    def test_siblings_share_a_parent(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_span_ids_are_unique_and_ordered(self, tracer):
        with tracer.span("x"):
            pass
        with tracer.span("y"):
            pass
        ids = [s.span_id for s in tracer.finished]
        assert len(set(ids)) == 2
        assert ids == sorted(ids)


class TestClocks:
    def test_sim_duration_from_pluggable_clock(self, tracer, clock):
        with tracer.span("phase") as span:
            clock.now = 7.5
        assert span.sim_duration == 7.5

    def test_wall_duration_is_positive(self, tracer):
        with tracer.span("work") as span:
            sum(range(1000))
        assert span.wall_duration > 0

    def test_open_span_reports_zero_durations(self, tracer):
        with tracer.span("open") as span:
            assert span.wall_duration == 0.0
            assert span.sim_duration == 0.0

    def test_children_sim_sum_bounded_by_parent(self, tracer, clock):
        with tracer.span("parent") as parent:
            for advance in (1.0, 2.0, 3.0):
                with tracer.span("child"):
                    clock.now += advance
        child_sum = sum(s.sim_duration for s in tracer.finished
                        if s.name.startswith("child"))
        assert child_sum <= parent.sim_duration


class TestErrorStatus:
    def test_exception_marks_error_and_reraises(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        (span,) = tracer.finished
        assert span.status == "error"
        assert "ValueError: boom" in span.error
        assert span.end_wall is not None  # timing still recorded

    def test_error_in_child_marks_ancestors_too(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("deep failure")
        by_name = {s.name: s for s in tracer.finished}
        assert by_name["inner"].status == "error"
        assert by_name["outer"].status == "error"
        # Stack unwound cleanly despite the exception.
        assert tracer.depth == 0


class TestHooksAndReset:
    def test_on_finish_sees_every_span_child_first(self, tracer):
        seen: list[str] = []
        tracer.on_finish = lambda s: seen.append(s.name)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert seen == ["inner", "outer"]

    def test_finished_deque_is_bounded(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_FINISHED_SPANS", 3)
        small = Tracer()
        for i in range(5):
            with small.span(f"s{i}"):
                pass
        assert len(small.finished) == 3
        assert small.finished[0].name == "s2"

    def test_reset_clears_state(self, tracer):
        with tracer.span("x"):
            pass
        tracer.reset()
        assert not tracer.finished
        assert tracer.current is None


class TestSerialization:
    def test_to_from_dict_round_trip(self, tracer, clock):
        with tracer.span("job", gas=42) as span:
            clock.now = 3.0
        record = span.to_dict()
        rebuilt = Span.from_dict(record)
        assert rebuilt.name == "job"
        assert rebuilt.span_id == span.span_id
        assert rebuilt.attributes == {"gas": 42}
        assert rebuilt.sim_duration == pytest.approx(3.0)
        assert rebuilt.wall_duration == pytest.approx(span.wall_duration)
        assert rebuilt.status == "ok"

    def test_from_dict_tolerates_minimal_record(self):
        span = Span.from_dict({"name": "bare", "span_id": "sp-1"})
        assert span.parent_id == ""
        assert span.sim_duration == 0.0


class TestBuildSpanTree:
    def test_roots_and_children(self, tracer):
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        roots, children = build_span_tree(list(tracer.finished))
        assert [r.name for r in roots] == ["root"]
        kids = children[roots[0].span_id]
        assert [k.name for k in kids] == ["a", "b"]

    def test_orphan_becomes_root(self):
        orphan = Span(name="o", span_id="sp-9", parent_id="sp-absent",
                      start_wall=0.0, start_sim=0.0, end_wall=1.0,
                      end_sim=1.0)
        roots, children = build_span_tree([orphan])
        assert roots == [orphan]
        assert not children


class TestScopedContext:
    def test_entries_live_only_inside_the_block(self, tracer):
        with tracer.scoped_context(session_id="s1"):
            with tracer.span("inner") as span:
                pass
            assert tracer.context == {"session_id": "s1"}
        assert "session_id" not in tracer.context
        assert span.attributes["session_id"] == "s1"

    def test_previous_value_restored(self, tracer):
        tracer.context["session_id"] = "outer"
        with tracer.scoped_context(session_id="inner"):
            assert tracer.context["session_id"] == "inner"
        assert tracer.context["session_id"] == "outer"

    def test_restored_even_when_exception_escapes(self, tracer):
        # Regression: the bare ``context[key] = value`` idiom this replaced
        # leaked the entry into every later span when the body raised.
        with pytest.raises(RuntimeError):
            with tracer.scoped_context(session_id="doomed"):
                raise RuntimeError("boom")
        assert "session_id" not in tracer.context
        with tracer.span("after") as span:
            pass
        assert "session_id" not in span.attributes

    def test_nested_scopes_unwind_in_order(self, tracer):
        with tracer.scoped_context(a=1):
            with tracer.scoped_context(a=2, b=3):
                assert tracer.context == {"a": 2, "b": 3}
            assert tracer.context == {"a": 1}
        assert tracer.context == {}


class TestExporters:
    def test_exporter_sees_every_finished_span(self, tracer):
        seen = []
        tracer.add_exporter(seen.append)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in seen] == ["inner", "outer"]

    def test_exporter_runs_after_on_finish(self, tracer):
        order = []
        tracer.on_finish = lambda s: order.append("on_finish")
        tracer.add_exporter(lambda s: order.append("exporter"))
        with tracer.span("x"):
            pass
        assert order == ["on_finish", "exporter"]

    def test_duplicate_add_is_ignored_and_remove_is_tolerant(self, tracer):
        seen = []
        tracer.add_exporter(seen.append)
        tracer.add_exporter(seen.append)
        with tracer.span("x"):
            pass
        assert len(seen) == 1
        tracer.remove_exporter(seen.append)
        tracer.remove_exporter(seen.append)  # already gone: no raise
        with tracer.span("y"):
            pass
        assert len(seen) == 1

    def test_exporters_survive_reset(self, tracer):
        # Per-job ``telemetry.reset()`` must not detach the batch exporter.
        seen = []
        tracer.add_exporter(seen.append)
        tracer.reset()
        with tracer.span("x"):
            pass
        assert [s.name for s in seen] == ["x"]

    def test_reset_restarts_local_span_ids(self, tracer):
        with tracer.span("x") as first:
            pass
        tracer.reset()
        with tracer.span("y") as again:
            pass
        assert first.span_id == "sp-000001"
        assert again.span_id == "sp-000001"
