"""Tests for distributed tracing: context, exporters, assembly, analysis."""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.control import JobsDB
from repro.errors import JobsDBError, TelemetryError
from repro.telemetry.distributed import (
    LOST_WORKER_SPAN,
    SPAN_RECORD,
    STATUS_LOST,
    TRACE_ANNOUNCE_RECORD,
    CoordinatorSpanExporter,
    JobSpanExporter,
    TraceContext,
    assemble_trace,
    batch_trace_context,
    critical_path,
    derive_span_id,
    derive_trace_id,
    render_critical_path,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.telemetry.tracing import Span, Tracer

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "docs", "chrome-trace.schema.json")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------------
# Trace context and id derivation
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_traceparent_round_trip(self):
        ctx = batch_trace_context(["d1", "d2"])
        header = ctx.to_traceparent()
        assert header == f"00-{ctx.trace_id}-{ctx.span_id}-01"
        assert TraceContext.from_traceparent(header) == ctx

    @pytest.mark.parametrize("header", [
        "", "00-abc", "01-" + "a" * 32 + "-" + "b" * 16 + "-01",
        "00-" + "a" * 32 + "-" + "b" * 16,
    ])
    def test_malformed_traceparent_rejected(self, header):
        with pytest.raises(TelemetryError):
            TraceContext.from_traceparent(header)

    def test_bad_id_lengths_rejected(self):
        with pytest.raises(TelemetryError):
            TraceContext("abc", "b" * 16)
        with pytest.raises(TelemetryError):
            TraceContext("a" * 32, "xyz")
        with pytest.raises(TelemetryError):
            TraceContext("Z" * 32, "b" * 16)  # non-hex

    def test_derivation_is_deterministic(self):
        assert derive_trace_id("m") == derive_trace_id("m")
        assert derive_trace_id("m") != derive_trace_id("n")
        assert len(derive_trace_id("m")) == 32
        tid = derive_trace_id("m")
        assert derive_span_id(tid, "a", "b") == derive_span_id(tid, "a", "b")
        assert derive_span_id(tid, "a") != derive_span_id(tid, "b")
        assert len(derive_span_id(tid, "a")) == 16

    def test_batch_context_ignores_digest_order(self):
        assert (batch_trace_context(["x", "y", "z"])
                == batch_trace_context(["z", "x", "y"]))


# ---------------------------------------------------------------------------
# Streaming exporters
# ---------------------------------------------------------------------------


def export_job_spans(trace, job_id, digest, attempt, build):
    """Run ``build(tracer)`` with a JobSpanExporter attached; return records."""
    records: list[dict] = []
    clock = FakeClock()
    tracer = Tracer(sim_clock=clock)
    tracer.add_exporter(JobSpanExporter(trace, job_id, digest, attempt,
                                        records.append))
    build(tracer, clock)
    return records


def simple_job(tracer, clock):
    with tracer.span("batch.job", job_id="j"):
        with tracer.span("lifecycle.phase.compute"):
            clock.now += 2.0
        clock.now += 1.0


class TestJobSpanExporter:
    def test_record_shape_and_root_parent(self):
        trace = batch_trace_context(["d1"])
        records = export_job_spans(trace, "job-1", "d1", 1, simple_job)
        assert [r["name"] for r in records] == ["lifecycle.phase.compute",
                                                "batch.job"]
        job = records[1]
        assert job["type"] == SPAN_RECORD
        assert job["trace_id"] == trace.trace_id
        # The job root parents to the propagated batch-root span.
        assert job["parent_id"] == trace.span_id
        assert records[0]["parent_id"] == job["span_id"]
        assert job["attempt"] == 1
        assert job["sim_duration"] == pytest.approx(3.0)

    def test_derived_ids_replay_identically(self):
        trace = batch_trace_context(["d1"])
        first = export_job_spans(trace, "job-1", "d1", 1, simple_job)
        again = export_job_spans(trace, "job-1", "d1", 1, simple_job)
        assert ([r["span_id"] for r in first]
                == [r["span_id"] for r in again])

    def test_attempt_number_changes_ids(self):
        trace = batch_trace_context(["d1"])
        first = export_job_spans(trace, "job-1", "d1", 1, simple_job)
        retry = export_job_spans(trace, "job-1", "d1", 2, simple_job)
        assert ({r["span_id"] for r in first}
                & {r["span_id"] for r in retry}) == set()

    def test_attributes_coerced_to_json_types(self):
        trace = batch_trace_context(["d1"])

        def build(tracer, clock):
            with tracer.span("batch.job", tags={"a", "b"},
                             obj=object()):
                pass

        record = export_job_spans(trace, "job-1", "d1", 1, build)[0]
        json.dumps(record)  # must not raise
        assert sorted(record["attributes"]["tags"]) == ["a", "b"]
        assert isinstance(record["attributes"]["obj"], str)

    def test_error_status_round_trips_through_record(self):
        trace = batch_trace_context(["d1"])

        def build(tracer, clock):
            with pytest.raises(ValueError):
                with tracer.span("batch.job"):
                    raise ValueError("boom")

        record = export_job_spans(trace, "job-1", "d1", 1, build)[0]
        assert record["status"] == "error"
        assert "boom" in record["error"]
        span = Span.from_dict(record)
        assert span.status == "error"
        assert "boom" in span.error

    def test_coordinator_root_maps_to_batch_root_id(self):
        trace = batch_trace_context(["d1"])
        records: list[dict] = []
        tracer = Tracer(sim_clock=FakeClock())
        tracer.add_exporter(CoordinatorSpanExporter(trace, records.append))
        with tracer.span("batch.execute"):
            with tracer.span("batch.settle"):
                pass
        root = next(r for r in records if r["name"] == "batch.execute")
        child = next(r for r in records if r["name"] == "batch.settle")
        assert root["span_id"] == trace.span_id
        assert root["parent_id"] == ""
        assert child["parent_id"] == trace.span_id


# ---------------------------------------------------------------------------
# Sidecar reader: the batch's shard reader over spans/
# ---------------------------------------------------------------------------


class TestReadSpanRecords:
    @staticmethod
    def spans_dir(tmp_path):
        path = tmp_path / "spans"
        path.mkdir()
        return path

    def test_missing_file_is_empty(self, tmp_path):
        assert JobsDB(str(tmp_path)).span_records() == []

    def test_round_trip_and_torn_tail(self, tmp_path):
        path = self.spans_dir(tmp_path) / "w0.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n{"torn', encoding="utf-8")
        assert JobsDB(str(tmp_path)).span_records() == [{"a": 1}, {"b": 2}]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = self.spans_dir(tmp_path) / "w0.jsonl"
        path.write_text('{"a": 1}\n{torn}\n{"b": 2}\n', encoding="utf-8")
        with pytest.raises(JobsDBError, match="line 2"):
            JobsDB(str(tmp_path)).span_records()


# ---------------------------------------------------------------------------
# Trace assembly
# ---------------------------------------------------------------------------


def build_batch(lose_first_attempt=False):
    """Synthesize one two-job batch's span + journal records.

    With ``lose_first_attempt`` job-2's first attempt streams a partial
    fragment (child exported, parent never finished — the SIGKILL shape)
    and a second attempt wins.
    """
    digests = {"job-1": "d1", "job-2": "d2"}
    trace = batch_trace_context(digests.values())
    spans: list[dict] = []

    coord = Tracer(sim_clock=FakeClock())
    coord.add_exporter(CoordinatorSpanExporter(trace, spans.append))
    with coord.span("batch.execute"):
        pass

    journal = [
        {"type": TRACE_ANNOUNCE_RECORD, "trace_id": trace.trace_id,
         "root_span_id": trace.span_id},
        {"type": "job", "status": "queued", "job_id": "job-1",
         "attempt": 1, "worker": "w1", "ts": 1.0},
        {"type": "job", "status": "done", "job_id": "job-1", "attempt": 1,
         "ts": 2.0, "result": {"outcome": "settled", "attempt": 1}},
    ]
    spans.extend(export_job_spans(trace, "job-1", "d1", 1, simple_job))

    heartbeats = {}
    if lose_first_attempt:
        def partial(tracer, clock):
            exporter = tracer.exporters[0]
            with tracer.span("batch.job", job_id="job-2"):
                with tracer.span("lifecycle.phase.compute"):
                    clock.now += 1.0
                # SIGKILL: the outer span never reaches the exporter.
                tracer.remove_exporter(exporter)

        spans.extend(export_job_spans(trace, "job-2", "d2", 1, partial))
        journal += [
            {"type": "job", "status": "queued", "job_id": "job-2",
             "attempt": 1, "worker": "w2", "ts": 3.0},
            {"type": "job", "status": "requeued", "job_id": "job-2",
             "attempt": 1, "worker": "w2", "ts": 5.0},
            {"type": "job", "status": "queued", "job_id": "job-2",
             "attempt": 2, "worker": "w1", "ts": 5.0},
            {"type": "job", "status": "done", "job_id": "job-2",
             "attempt": 2, "ts": 6.0,
             "result": {"outcome": "settled", "attempt": 2}},
        ]
        heartbeats = {"w2": {"job_id": "job-2", "ts": 4.5}}
        spans.extend(export_job_spans(trace, "job-2", "d2", 2, simple_job))
    else:
        journal += [
            {"type": "job", "status": "queued", "job_id": "job-2",
             "attempt": 1, "worker": "w2", "ts": 1.5},
            {"type": "job", "status": "done", "job_id": "job-2",
             "attempt": 1, "ts": 2.5,
             "result": {"outcome": "settled", "attempt": 1}},
        ]
        spans.extend(export_job_spans(trace, "job-2", "d2", 1, simple_job))
    return trace, spans, journal, heartbeats


class TestAssembleTrace:
    def test_happy_path_is_complete(self):
        trace, spans, journal, beats = build_batch()
        assembled = assemble_trace(spans, journal, heartbeats=beats)
        assert assembled.trace_id == trace.trace_id
        assert assembled.root["span_id"] == trace.span_id
        assert assembled.completeness == 1.0
        assert assembled.orphans == []
        assert assembled.lost == []
        assert assembled.unwitnessed == []
        assert assembled.winners == {"job-1": 1, "job-2": 1}

    def test_lost_attempt_gets_synthetic_span(self):
        trace, spans, journal, beats = build_batch(lose_first_attempt=True)
        assembled = assemble_trace(spans, journal, heartbeats=beats)
        assert assembled.completeness == 1.0
        assert assembled.orphans == []
        assert len(assembled.lost) == 1
        synthetic = assembled.lost[0]
        assert synthetic["name"] == LOST_WORKER_SPAN
        assert synthetic["status"] == STATUS_LOST
        assert synthetic["attributes"]["evidence"] == "heartbeat"
        assert synthetic["attributes"]["worker"] == "w2"
        # Queued at 3.0; the requeue record at 5.0 is the latest evidence
        # (the heartbeat at 4.5 upgrades the evidence label, not the end).
        assert synthetic["wall_ms"] == pytest.approx(2000.0)
        # The dead attempt's fragment hangs under the synthetic span.
        fragment = next(r for r in assembled.spans
                        if r["job_id"] == "job-2" and r["attempt"] == 1
                        and r["name"] != LOST_WORKER_SPAN)
        assert fragment["parent_id"] == synthetic["span_id"]
        assert assembled.winners["job-2"] == 2

    def test_unwitnessed_job_lowers_completeness(self):
        trace, spans, journal, beats = build_batch()
        journal = journal + [
            {"type": "job", "status": "done", "job_id": "job-3",
             "attempt": 1, "ts": 9.0,
             "result": {"outcome": "failed", "attempt": 1}},
        ]
        assembled = assemble_trace(spans, journal, heartbeats=beats)
        assert assembled.unwitnessed == ["job-3"]
        assert assembled.completeness == pytest.approx(2 / 3)

    def test_error_outcome_jobs_are_out_of_scope(self):
        trace, spans, journal, beats = build_batch()
        journal = journal + [
            {"type": "job", "status": "done", "job_id": "job-3",
             "attempt": 1, "ts": 9.0,
             "result": {"outcome": "error", "attempt": 1}},
        ]
        assembled = assemble_trace(spans, journal, heartbeats=beats)
        assert assembled.unwitnessed == []
        assert assembled.completeness == 1.0

    def test_winning_attempt_with_broken_parent_is_orphaned(self):
        trace, spans, journal, beats = build_batch()
        spans = spans + [{
            "type": SPAN_RECORD, "trace_id": trace.trace_id,
            "span_id": derive_span_id(trace.trace_id, "stray"),
            "parent_id": "feedfeedfeedfeed", "job_id": "job-1",
            "attempt": 1, "name": "stray", "start_sim": 0.0,
            "end_sim": 0.0, "sim_duration": 0.0, "wall_ms": 0.0,
            "status": "ok", "error": "", "attributes": {},
        }]
        assembled = assemble_trace(spans, journal, heartbeats=beats)
        assert [r["name"] for r in assembled.orphans] == ["stray"]

    def test_no_evidence_raises(self):
        with pytest.raises(TelemetryError):
            assemble_trace([], [])

    def test_missing_root_span_is_synthesized(self):
        trace, spans, journal, beats = build_batch()
        spans = [r for r in spans if r["span_id"] != trace.span_id]
        assembled = assemble_trace(spans, journal, heartbeats=beats)
        assert assembled.root["attributes"].get("synthetic") is True
        assert assembled.completeness == 1.0


# ---------------------------------------------------------------------------
# Chrome trace export + schema validation
# ---------------------------------------------------------------------------


class TestChromeTrace:
    def test_export_validates_against_checked_in_schema(self):
        with open(SCHEMA_PATH, encoding="utf-8") as handle:
            schema = json.load(handle)
        trace, spans, journal, beats = build_batch(lose_first_attempt=True)
        doc = to_chrome_trace(assemble_trace(spans, journal,
                                             heartbeats=beats))
        assert validate_chrome_trace(doc, schema) == []
        json.loads(json.dumps(doc))  # serializable
        assert doc["otherData"]["trace_id"] == trace.trace_id
        phases = {event["ph"] for event in doc["traceEvents"]}
        assert phases == {"M", "X"} or phases == {"M", "X", "i"}
        lost = [e for e in doc["traceEvents"] if e.get("cat") == "lost"]
        assert len(lost) == 1
        assert all(e["ts"] >= 0 for e in doc["traceEvents"]
                   if "ts" in e)

    def test_validator_flags_violations(self):
        with open(SCHEMA_PATH, encoding="utf-8") as handle:
            schema = json.load(handle)
        bad = {"traceEvents": [{"ph": "Q", "pid": 0, "tid": 1}],
               "displayTimeUnit": "eons",
               "otherData": {"trace_id": "t", "format": "other"}}
        errors = validate_chrome_trace(bad, schema)
        assert any("'Q' not in" in e for e in errors)
        assert any("minimum" in e for e in errors)
        assert any("missing required 'name'" in e for e in errors)
        assert any("displayTimeUnit" in e for e in errors)
        assert any("format" in e for e in errors)


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------


class TestCriticalPath:
    def test_bounding_job_and_chain(self):
        trace = batch_trace_context(["d1", "d2"])

        def heavy(tracer, clock):
            with tracer.span("batch.job"):
                with tracer.span("lifecycle.phase.compute"):
                    clock.now += 5.0
                with tracer.span("lifecycle.phase.settle"):
                    clock.now += 1.0

        journal = [
            {"type": TRACE_ANNOUNCE_RECORD, "trace_id": trace.trace_id,
             "root_span_id": trace.span_id},
            {"type": "job", "status": "done", "job_id": "job-1",
             "attempt": 1, "ts": 1.0,
             "result": {"outcome": "settled", "attempt": 1}},
            {"type": "job", "status": "done", "job_id": "job-2",
             "attempt": 1, "ts": 1.0,
             "result": {"outcome": "settled", "attempt": 1}},
        ]
        spans = (export_job_spans(trace, "job-1", "d1", 1, simple_job)
                 + export_job_spans(trace, "job-2", "d2", 1, heavy))
        path = critical_path(assemble_trace(spans, journal))
        assert path.job_id == "job-2"
        assert path.total_sim == pytest.approx(6.0)
        assert [name for name, _ in path.chain] == [
            "batch.job", "lifecycle.phase.compute"]
        assert path.jobs_analyzed == 2
        total, count = path.phase_totals["batch.job"]
        assert count == 2

    def test_report_is_stable_under_record_order(self):
        trace, spans, journal, beats = build_batch(lose_first_attempt=True)
        first = render_critical_path(
            critical_path(assemble_trace(spans, journal, heartbeats=beats)))
        shuffled = list(spans)
        random.Random(7).shuffle(shuffled)
        second = render_critical_path(
            critical_path(assemble_trace(shuffled, journal,
                                         heartbeats=beats)))
        assert first == second
        assert first.endswith("\n")

    def test_empty_trace_renders_placeholder(self):
        trace = batch_trace_context(["d"])
        journal = [{"type": TRACE_ANNOUNCE_RECORD,
                    "trace_id": trace.trace_id,
                    "root_span_id": trace.span_id}]
        path = critical_path(assemble_trace([], journal))
        assert path.jobs_analyzed == 0
        assert "(none)" in render_critical_path(path)
