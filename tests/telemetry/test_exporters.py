"""Tests for exporters: Prometheus round-trip, span trees, event replay."""

from __future__ import annotations

import math

import pytest

from repro.errors import TelemetryError
from repro.telemetry.exporters import (
    registry_from_events,
    render_span_tree,
    spans_from_events,
    to_prometheus,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer
from tests.telemetry.exposition_oracle import parse_prometheus, registry_samples


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    c = registry.counter("pds2_ops_total", "Operations", labelnames=("op",))
    c.labels(op="put").inc(5)
    c.labels(op="get").inc(2)
    registry.gauge("pds2_depth", "Queue depth").set(3.5)
    h = registry.histogram("pds2_lat", "Latency", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(2.0)
    return registry


class TestPrometheusText:
    def test_help_and_type_headers(self):
        text = to_prometheus(populated_registry())
        assert "# HELP pds2_ops_total Operations" in text
        assert "# TYPE pds2_ops_total counter" in text
        assert "# TYPE pds2_lat histogram" in text

    def test_histogram_emits_cumulative_buckets(self):
        text = to_prometheus(populated_registry())
        assert 'pds2_lat_bucket{le="0.1"} 1' in text
        assert 'pds2_lat_bucket{le="1"} 2' in text
        assert 'pds2_lat_bucket{le="+Inf"} 3' in text
        assert "pds2_lat_count 3" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        c = registry.counter("pds2_esc_total", labelnames=("path",))
        c.labels(path='has"quote\\and\nnewline').inc()
        text = to_prometheus(registry)
        parsed = parse_prometheus(text)
        labels = dict(next(iter(parsed))[1])
        assert labels["path"] == 'has"quote\\and\nnewline'

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""

    def test_round_trip_equals_registry_samples(self):
        registry = populated_registry()
        assert parse_prometheus(to_prometheus(registry)) == \
            registry_samples(registry)

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(TelemetryError):
            parse_prometheus("only_a_name")
        with pytest.raises(TelemetryError):
            parse_prometheus('bad{label=unquoted} 1')

    def test_parse_handles_inf(self):
        parsed = parse_prometheus('x_bucket{le="+Inf"} 3')
        assert parsed[("x_bucket", (("le", "+Inf"),))] == 3
        assert math.isfinite(3)


class TestSnapshotExporterAgreement:
    def test_snapshot_and_prometheus_describe_same_values(self):
        registry = populated_registry()
        rebuilt = MetricsRegistry.from_snapshot(registry.snapshot())
        assert to_prometheus(rebuilt) == to_prometheus(registry)


class TestRenderSpanTree:
    def _spans(self):
        clock_value = [0.0]
        tracer = Tracer(sim_clock=lambda: clock_value[0])
        with tracer.span("lifecycle.session", gas_used=100):
            with tracer.span("lifecycle.phase.deploy"):
                clock_value[0] = 1.0
            with tracer.span("lifecycle.phase.execute"):
                clock_value[0] = 2.0
        return list(tracer.finished)

    def test_tree_shows_nesting_and_attributes(self):
        rendered = render_span_tree(self._spans())
        lines = rendered.splitlines()
        assert lines[0].startswith("lifecycle.session")
        assert "gas_used=100" in lines[0]
        assert any("├─ lifecycle.phase.deploy" in line for line in lines)
        assert any("└─ lifecycle.phase.execute" in line for line in lines)

    def test_error_spans_flagged(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("x")
        rendered = render_span_tree(list(tracer.finished))
        assert "status=error" in rendered

    def test_no_spans_placeholder(self):
        assert render_span_tree([]) == "(no spans)"


class _FakeEvent:
    """Duck-typed stand-in for LifecycleEvent in replay tests."""

    def __init__(self, name, phase="", gas_delta=0, data=None):
        self.name = name
        self.phase = phase
        self.gas_delta = gas_delta
        self.data = data or {}


class TestEventReplay:
    def test_spans_from_events_filters_span_end(self):
        span_record = {"span_id": "sp-1", "parent_id": "", "name": "x",
                       "start_sim": 0.0, "end_sim": 2.0, "sim_duration": 2.0,
                       "wall_ms": 1.5, "status": "ok", "error": "",
                       "attributes": {}}
        events = [
            _FakeEvent("phase.started", phase="deploy"),
            _FakeEvent("span.end", data=span_record),
        ]
        (span,) = spans_from_events(events)
        assert span.name == "x"
        assert span.sim_duration == 2.0

    def test_registry_from_events_counts_and_gas(self):
        events = [
            _FakeEvent("phase.started", phase="deploy"),
            _FakeEvent("chain.block_mined", phase="deploy", gas_delta=500),
            _FakeEvent("phase.started", phase="execute"),
        ]
        registry = registry_from_events(events)
        assert registry.get("pds2_events_total").value(
            name="phase.started") == 2
        assert registry.get("pds2_gas_used_total").value(phase="deploy") == 500
        assert registry.get("pds2_events_by_phase_total").value(
            phase="execute") == 1


class TestExemplarExposition:
    def test_exemplar_rides_as_comment_and_parse_ignores_it(self):
        registry = MetricsRegistry()
        jobs = registry.counter("pds2_jobs_total", "jobs", ("outcome",))
        child = jobs.labels(outcome="settled")
        child.inc(5)
        child.set_exemplar(trace_id="abc123")
        text = to_prometheus(registry)
        assert ('# EXEMPLAR pds2_jobs_total{outcome="settled"} '
                '{trace_id="abc123"}') in text
        # Comment lines must not disturb the numeric round trip.
        assert parse_prometheus(text) == registry_samples(registry)

    def test_no_exemplar_no_comment(self):
        registry = MetricsRegistry()
        registry.counter("pds2_jobs_total", "jobs").inc()
        assert "# EXEMPLAR" not in to_prometheus(registry)


class TestProfileFlameTree:
    def _profile(self):
        from repro.telemetry.profiler import Profile
        return Profile(
            mode="calls",
            samples={
                ("span:batch.job", "region:outer", "region:inner",
                 "mod.f"): 6,
                ("span:batch.job", "region:outer", "mod.g"): 3,
                ("mod.h",): 1,
            },
            total_samples=10,
            attributed_samples=9,
        )

    def test_nested_profiled_regions_render_nested(self):
        from repro.telemetry.exporters import render_profile_tree
        tree = render_profile_tree(self._profile())
        lines = tree.splitlines()
        outer = next(i for i, l in enumerate(lines)
                     if "region:outer" in l)
        inner = next(i for i, l in enumerate(lines)
                     if "region:inner" in l)
        assert inner > outer
        # Inner region is indented one level deeper than its parent.
        assert (lines[inner].index("region:inner")
                > lines[outer].index("region:outer"))
        assert "9 (90.0%)" in lines[outer]
        assert "6 (60.0%)" in lines[inner]

    def test_collapsed_round_trips_nested_regions(self):
        from repro.telemetry.exporters import profile_to_collapsed
        collapsed = profile_to_collapsed(self._profile())
        assert ("span:batch.job;region:outer;region:inner;mod.f 6"
                in collapsed)
        assert collapsed == profile_to_collapsed(self._profile())

    def test_live_nested_regions_reach_the_flame_tree(self):
        from repro.telemetry.exporters import render_profile_tree
        from repro.telemetry.profiler import Profiler, profiled

        def spin(n):
            total = 0
            for i in range(n):
                total += i * i
            return total

        tracer = Tracer()
        with Profiler(mode="calls", call_interval=2, trace=tracer) as prof:
            with tracer.span("batch.job"):
                with profiled("region.outer"):
                    with profiled("region.inner"):
                        spin(4000)
        tree = render_profile_tree(prof.result())
        assert "span:batch.job" in tree
        assert "region:region.outer" in tree
        assert "region:region.inner" in tree
