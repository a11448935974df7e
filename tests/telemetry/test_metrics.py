"""Tests for the metrics registry: counters, gauges, histograms, guards."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import TelemetryError
from repro.telemetry.exporters import to_prometheus
from repro.telemetry.metrics import (
    GAS_BUCKETS,
    MAX_LABEL_SETS,
    MetricsRegistry,
)


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestCounter:
    def test_unlabeled_increment(self, registry):
        c = registry.counter("pds2_test_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labeled_children_are_independent(self, registry):
        c = registry.counter("pds2_test_total", "", labelnames=("kind",))
        c.labels(kind="a").inc(3)
        c.labels(kind="b").inc()
        assert c.value(kind="a") == 3
        assert c.value(kind="b") == 1
        assert c.total() == 4

    def test_counters_only_go_up(self, registry):
        c = registry.counter("pds2_test_total")
        with pytest.raises(TelemetryError):
            c.inc(-1)

    def test_labeled_metric_rejects_bare_inc(self, registry):
        c = registry.counter("pds2_test_total", labelnames=("kind",))
        with pytest.raises(TelemetryError, match="call .labels"):
            c.inc()

    def test_wrong_label_names_rejected(self, registry):
        c = registry.counter("pds2_test_total", labelnames=("kind",))
        with pytest.raises(TelemetryError, match="takes labels"):
            c.labels(flavor="x")

    def test_label_values_coerced_to_str(self, registry):
        c = registry.counter("pds2_test_total", labelnames=("height",))
        c.labels(height=7).inc()
        assert c.value(height="7") == 1


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("pds2_depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value() == 12


class TestHistogramBucketEdges:
    def test_value_on_edge_lands_in_that_bucket(self, registry):
        h = registry.histogram("pds2_h", buckets=(1.0, 2.0, 5.0))
        h.observe(2.0)  # exactly on an edge: le-semantics, bucket le=2
        child = h.child()
        assert child.bucket_counts == [0, 1, 0, 0]
        assert child.cumulative_counts() == [0, 1, 1, 1]

    def test_below_first_edge(self, registry):
        h = registry.histogram("pds2_h", buckets=(1.0, 2.0))
        h.observe(0.5)
        assert h.child().bucket_counts == [1, 0, 0]

    def test_above_last_edge_goes_to_overflow(self, registry):
        h = registry.histogram("pds2_h", buckets=(1.0, 2.0))
        h.observe(99.0)
        assert h.child().bucket_counts == [0, 0, 1]
        assert h.child().cumulative_counts()[-1] == 1

    def test_sum_and_count_track_observations(self, registry):
        h = registry.histogram("pds2_h", buckets=(1.0,))
        for v in (0.25, 0.5, 3.0):
            h.observe(v)
        assert h.child().count == 3
        assert h.child().sum == pytest.approx(3.75)

    def test_buckets_must_be_sorted_and_distinct(self, registry):
        with pytest.raises(TelemetryError):
            registry.histogram("pds2_bad", buckets=(2.0, 1.0))
        with pytest.raises(TelemetryError):
            registry.histogram("pds2_bad2", buckets=(1.0, 1.0))
        with pytest.raises(TelemetryError):
            registry.histogram("pds2_bad3", buckets=())


class TestCardinalityGuard:
    def test_guard_trips_beyond_max_label_sets(self, registry):
        c = registry.counter("pds2_guarded_total", labelnames=("addr",))
        for i in range(MAX_LABEL_SETS):
            c.labels(addr=f"0x{i}").inc()
        with pytest.raises(TelemetryError, match="high-cardinality"):
            c.labels(addr="0x999999")

    def test_existing_children_still_usable_after_trip(self, registry):
        c = registry.counter("pds2_guarded_total", labelnames=("addr",))
        for i in range(MAX_LABEL_SETS):
            c.labels(addr=f"0x{i}").inc()
        with pytest.raises(TelemetryError):
            c.labels(addr="0x999999")
        c.labels(addr="0x0").inc()
        assert c.value(addr="0x0") == 2


class TestRegistry:
    def test_get_or_create_is_idempotent(self, registry):
        first = registry.counter("pds2_x_total", "help")
        second = registry.counter("pds2_x_total", "other help ignored")
        assert first is second

    def test_type_conflict_rejected(self, registry):
        registry.counter("pds2_x_total")
        with pytest.raises(TelemetryError, match="already registered"):
            registry.gauge("pds2_x_total")

    def test_label_conflict_rejected(self, registry):
        registry.counter("pds2_x_total", labelnames=("a",))
        with pytest.raises(TelemetryError, match="already registered"):
            registry.counter("pds2_x_total", labelnames=("b",))

    def test_bucket_conflict_rejected(self, registry):
        registry.histogram("pds2_h", buckets=(1.0, 2.0))
        with pytest.raises(TelemetryError, match="different"):
            registry.histogram("pds2_h", buckets=(1.0, 3.0))

    def test_invalid_names_rejected(self, registry):
        for bad in ("", "has space", "has-dash"):
            with pytest.raises(TelemetryError):
                registry.counter(bad)

    def test_reset_zeroes_but_keeps_handles(self, registry):
        c = registry.counter("pds2_x_total", labelnames=("k",))
        child = c.labels(k="v")
        child.inc(5)
        h = registry.histogram("pds2_h", buckets=GAS_BUCKETS)
        h.observe(10_000)
        registry.reset()
        assert child.value == 0
        assert h.child().count == 0
        # The same child object keeps working after reset.
        child.inc()
        assert c.value(k="v") == 1

    def test_contains_and_get(self, registry):
        registry.counter("pds2_x_total")
        assert "pds2_x_total" in registry
        assert registry.get("pds2_x_total") is not None
        assert registry.get("absent") is None


class TestSnapshotRoundTrip:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        c = registry.counter("pds2_a_total", "a", labelnames=("kind",))
        c.labels(kind="x").inc(3)
        c.labels(kind="y").inc(1.5)
        registry.gauge("pds2_g", "g").set(-2.5)
        h = registry.histogram("pds2_h", "h", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)
        return registry

    def test_round_trip_preserves_every_value(self):
        original = self._populated()
        rebuilt = MetricsRegistry.from_snapshot(original.snapshot())
        assert rebuilt.get("pds2_a_total").value(kind="x") == 3
        assert rebuilt.get("pds2_a_total").value(kind="y") == 1.5
        assert rebuilt.get("pds2_g").value() == -2.5
        child = rebuilt.get("pds2_h").child()
        assert child.bucket_counts == [1, 1, 1]
        assert child.sum == pytest.approx(55.5)
        assert child.count == 3

    def test_snapshot_survives_json(self):
        original = self._populated()
        wire = json.loads(json.dumps(original.snapshot()))
        rebuilt = MetricsRegistry.from_snapshot(wire)
        assert rebuilt.snapshot() == original.snapshot()

    def test_wrong_format_marker_rejected(self):
        with pytest.raises(TelemetryError, match="snapshot"):
            MetricsRegistry.from_snapshot({"format": "nope", "metrics": []})


def _fixture(name: str) -> dict:
    with open(FIXTURES / name, encoding="utf-8") as handle:
        return json.load(handle)


def _totals(snap: dict) -> dict:
    """Per-(metric, declared labels) totals straight from the document:
    the oracle the reader's folding is compared against."""
    totals: dict = {}
    for entry in snap["metrics"]:
        for sample in entry["samples"]:
            key = (entry["name"], tuple(sorted(sample["labels"].items())))
            if entry["type"] == "histogram":
                counts, total, count = totals.get(
                    key, ([0] * len(sample["bucket_counts"]), 0.0, 0))
                totals[key] = (
                    [a + b for a, b in zip(counts, sample["bucket_counts"])],
                    total + sample["sum"], count + sample["count"])
            else:
                totals[key] = totals.get(key, 0.0) + sample["value"]
    return totals


def _loaded(registry: MetricsRegistry) -> dict:
    loaded: dict = {}
    for metric in registry.collect():
        for labels, child in metric.children():
            key = (metric.name, tuple(sorted(labels.items())))
            assert key not in loaded
            loaded[key] = (
                (child.bucket_counts, child.sum, child.count)
                if metric.metric_type == "histogram" else child.value)
    return loaded


class TestPersistedSnapshots:
    """``from_snapshot`` is the one decoder of persisted metric bytes:
    every format ever committed loads, everything else is a typed error."""

    def test_context_samples_fold_into_declared_labels(self):
        # Cut from benchmarks/results/e1.metrics.json at a83fef1, when
        # every sample was split per session under a `context` key.
        snap = _fixture("e1_a83fef1.metrics.json")
        contexts = [s for e in snap["metrics"] for s in e["samples"]
                    if s.get("context")]
        assert snap["format"] == "pds2-metrics-snapshot/2" and contexts
        registry = MetricsRegistry.from_snapshot(snap)
        assert _loaded(registry) == _totals(snap)
        mults = registry.get("pds2_crypto_scalar_mult_total")
        assert mults.value(kind="base") == 54 + 37
        assert mults.value(kind="point") == 16
        assert registry.get("pds2_crypto_sign_seconds").child().count == 72
        text = to_prometheus(registry)
        assert "session_id" not in text
        assert 'pds2_crypto_scalar_mult_total{kind="double_base"} 66' in text
        resnap = registry.snapshot()
        assert "context" not in json.dumps(resnap)
        assert MetricsRegistry.from_snapshot(resnap).snapshot() == resnap

    def test_gauge_takes_the_last_sample_in_file_order(self):
        snap = {"format": "pds2-metrics-snapshot/2", "metrics": [{
            "name": "pds2_depth", "type": "gauge", "labelnames": [],
            "samples": [
                {"labels": {}, "value": 7.0},
                {"labels": {}, "value": 3.0, "context": {"session_id": "a"}},
                {"labels": {}, "value": 5.0, "context": {"session_id": "b"}},
            ]}]}
        assert MetricsRegistry.from_snapshot(snap).get(
            "pds2_depth").value() == 5.0

    def test_format_1_loads_unchanged(self):
        # Cut from benchmarks/results/e12.metrics.json at 20d0a98.
        snap = _fixture("e12_20d0a98.metrics.json")
        assert snap["format"] == "pds2-metrics-snapshot/1"
        registry = MetricsRegistry.from_snapshot(snap)
        assert _loaded(registry) == _totals(snap)
        assert registry.get("pds2_crypto_scalar_mult_total").value(
            kind="double_base") == 309
        rewritten = registry.snapshot()
        assert rewritten["format"] == "pds2-metrics-snapshot/2"
        for before, after in zip(snap["metrics"], rewritten["metrics"]):
            for old, new in zip(before["samples"], after["samples"]):
                new.pop("quantiles", None)
                assert old == new

    @pytest.mark.parametrize("damage", [
        lambda snap: snap.update(format="pds2-metrics-snapshot/3"),
        lambda snap: snap.pop("metrics"),
        lambda snap: snap["metrics"][0].pop("samples"),
        lambda snap: snap["metrics"][0]["samples"][0].pop("value"),
        lambda snap: snap["metrics"][0]["samples"][0].update(value="many"),
        lambda snap: snap["metrics"][0]["samples"][0].update(value=None),
        lambda snap: snap["metrics"][0]["samples"][0].update(labels=["kind"]),
        lambda snap: snap["metrics"][0]["samples"][0].update(labels={}),
        lambda snap: snap["metrics"][1]["samples"][0].update(
            bucket_counts=[1, 2]),
        lambda snap: snap["metrics"][1]["samples"][0].update(count="x"),
        lambda snap: snap["metrics"][1].pop("buckets"),
        lambda snap: snap["metrics"][1].update(type="summary"),
        lambda snap: snap["metrics"].append("pds2_crypto_sign_total"),
        lambda snap: snap["metrics"].append(
            dict(snap["metrics"][0], type="gauge")),
    ], ids=["unknown-format", "no-metrics", "no-samples", "no-value",
            "text-value", "null-value", "labels-not-a-map", "labels-missing",
            "short-buckets", "text-count", "no-buckets", "unknown-type",
            "entry-not-a-map", "type-conflict"])
    def test_malformed_documents_raise_telemetry_error(self, damage):
        snap = _fixture("e1_a83fef1.metrics.json")
        assert [e["type"] for e in snap["metrics"][:2]] == [
            "counter", "histogram"]
        damage(snap)
        with pytest.raises(TelemetryError):
            MetricsRegistry.from_snapshot(snap)

    @pytest.mark.parametrize("document", [None, [], "text", 7])
    def test_non_mapping_document_rejected(self, document):
        with pytest.raises(TelemetryError, match="snapshot"):
            MetricsRegistry.from_snapshot(document)


class TestCounterExemplars:
    def test_exemplar_set_and_snapshot_round_trip(self):
        from repro.telemetry.metrics import MetricsRegistry
        registry = MetricsRegistry()
        jobs = registry.counter("pds2_jobs_total", "jobs", ("outcome",))
        child = jobs.labels(outcome="settled")
        child.inc(3)
        child.set_exemplar(trace_id="abc123")
        snap = registry.snapshot()
        rebuilt = MetricsRegistry.from_snapshot(snap)
        restored = rebuilt.get("pds2_jobs_total").labels(outcome="settled")
        assert restored.value == 3
        assert restored.exemplar == {"trace_id": "abc123"}

    def test_unlabeled_counter_exemplar(self):
        from repro.telemetry.metrics import MetricsRegistry
        registry = MetricsRegistry()
        deaths = registry.counter("pds2_worker_deaths_total", "deaths")
        deaths.inc()
        deaths.set_exemplar(trace_id="feed")
        (sample,) = registry.snapshot()["metrics"][0]["samples"]
        assert sample["exemplar"] == {"trace_id": "feed"}

    def test_reset_clears_exemplars(self):
        from repro.telemetry.metrics import MetricsRegistry
        registry = MetricsRegistry()
        jobs = registry.counter("pds2_jobs_total", "jobs")
        jobs.inc()
        jobs.set_exemplar(trace_id="abc")
        registry.reset()
        assert jobs._default_child().exemplar is None
