"""Distributed tracing: cross-process trace context, sidecars, assembly.

The in-process :class:`~repro.telemetry.tracing.Tracer` sees one process;
the batch control plane runs one session per *worker process*, so a
chaos-killed sweep leaves disconnected per-worker span fragments with no
causal story.  This module closes that gap with four pieces:

* :class:`TraceContext` — a ``(trace_id, span_id)`` pair the coordinator
  hands each worker when it forks it, with *deterministic* id
  derivation: the batch trace id is a digest over the submitted job spec
  digests, and every exported span id is a digest over
  ``(trace id, spec digest, attempt, local span id)``.  Local span ids
  restart at ``sp-000001`` on every ``telemetry.reset()`` (one reset per
  job), so a replay of the same attempt reproduces the same ids byte for
  byte — content-addressed tracing, matching the control plane's
  content-addressed specs.
* :class:`JobSpanExporter` / :class:`CoordinatorSpanExporter` — tracer
  finish hooks that remap local ids to derived ids and stream one JSON
  record per finished span into a per-shard sidecar (the torn-tail-
  tolerant journal discipline of ``jobs_db.py``; the sink is any callable
  taking a dict, so this module stays independent of the control layer).
* :func:`assemble_trace` — merges worker sidecars and coordinator spans
  with the evidence of the folded jobs journal (its index) into one
  causally-linked tree per batch:
  winning attempts form each job's canonical subtree, attempts that died
  with their worker hang under synthetic ``batch.lost-worker`` spans
  closed from journal stamps, the journal's worker losses and requeues
  become instant events, and anything that fails to link is surfaced as
  an orphan (the CI trace-smoke job asserts there are none).
* Exporters and analyzers over the assembled tree — Chrome trace-event
  (catapult) output via :func:`to_chrome_trace` (validated against
  ``docs/chrome-trace.schema.json`` by :func:`validate_chrome_trace`),
  and a deterministic critical-path report via :func:`critical_path` /
  :func:`render_critical_path` built *only* from sim-clock durations and
  names, so two runs at one seed render byte-identical reports even
  though wall clocks and worker scheduling differ.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.errors import TelemetryError
from repro.telemetry.tracing import Span

#: Span record type tag in sidecar JSONL files (the journal stamps
#: ``shard``/``seq``/``ts`` on top of these).
SPAN_RECORD = "span"

#: Synthetic span name for an attempt whose worker died before its ``done``
#: record landed.
LOST_WORKER_SPAN = "batch.lost-worker"
STATUS_LOST = "lost"


# ---------------------------------------------------------------------------
# Trace context and deterministic id derivation
# ---------------------------------------------------------------------------


def derive_trace_id(material: str) -> str:
    """32-hex trace id as a digest of ``material`` (content addressing)."""
    return sha256(f"pds2-trace:{material}".encode()).hexdigest()[:32]


def derive_span_id(trace_id: str, *parts: str) -> str:
    """16-hex span id derived from the trace id plus stable coordinates."""
    material = ":".join((trace_id,) + tuple(parts))
    return sha256(f"pds2-span:{material}".encode()).hexdigest()[:16]


@dataclass(frozen=True)
class TraceContext:
    """One hop of trace propagation: which trace, which parent span."""

    trace_id: str
    span_id: str


def batch_trace_context(spec_digests: Iterable[str]) -> TraceContext:
    """The deterministic root context of one batch.

    The trace id digests the *sorted* spec digests, so any process holding
    the submitted specs — coordinator, worker, offline assembler, a replay
    next week — derives the identical trace id and batch-root span id.
    """
    material = ",".join(sorted(spec_digests))
    trace_id = derive_trace_id(material)
    return TraceContext(trace_id, derive_span_id(trace_id, "batch"))


# ---------------------------------------------------------------------------
# Streaming exporters (tracer finish hooks -> sidecar records)
# ---------------------------------------------------------------------------


def span_record(span: Span, trace_id: str, span_id: str, parent_id: str,
                job_id: str = "", attempt: int = 0) -> dict:
    """The sidecar record of one finished span under its derived ids."""
    return {
        **span.to_dict(),
        "type": SPAN_RECORD,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "job_id": job_id,
        "attempt": attempt,
        "attributes": _jsonable(span.attributes),
    }


class JobSpanExporter:
    """Export one job attempt's finished spans with derived, stable ids.

    Local span ids (``sp-%06d``) restart per job via ``telemetry.reset()``,
    so ``derive_span_id(trace, spec_digest, attempt, local_id)`` is a pure
    function of the work — parent ids are derivable *before* the parent
    span finishes (children finish first), which is what keeps the exported
    records streamable.  A span with no local parent is a job root and
    parents to the propagated batch-root span.
    """

    def __init__(self, trace: TraceContext, job_id: str, spec_digest: str,
                 attempt: int, sink: Optional[Callable[[dict], Any]]):
        self.trace = trace
        self.job_id = job_id
        self.spec_digest = spec_digest
        self.attempt = int(attempt)
        self.sink = sink
        self.exported = 0

    def _derived(self, local_id: str) -> str:
        return derive_span_id(self.trace.trace_id, self.spec_digest,
                              str(self.attempt), local_id)

    def __call__(self, span: Span) -> None:
        self.exported += 1
        if self.sink is not None:
            parent = (self._derived(span.parent_id) if span.parent_id
                      else self.trace.span_id)
            self.sink(span_record(
                span, self.trace.trace_id, self._derived(span.span_id),
                parent, job_id=self.job_id, attempt=self.attempt))


class CoordinatorSpanExporter:
    """Export the coordinator's ``batch.execute`` span into its sidecar
    shard under the deterministic batch-root span id, so every
    worker-exported job span (whose parent is that id) links up.  The
    coordinator opens no other span.
    """

    ROOT_SPAN = "batch.execute"

    def __init__(self, trace: TraceContext, sink: Callable[[dict], Any]):
        self.trace = trace
        self.sink = sink

    def __call__(self, span: Span) -> None:
        if span.name == self.ROOT_SPAN:
            self.sink(span_record(span, self.trace.trace_id,
                                  self.trace.span_id, ""))


def _jsonable(value: Any) -> Any:
    """Coerce span attributes to plain JSON types (numpy scalars, sets…)."""
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        if isinstance(value, Mapping):
            return {str(k): _jsonable(v) for k, v in value.items()}
        if isinstance(value, (list, tuple, set, frozenset)):
            return [_jsonable(v) for v in value]
        if hasattr(value, "item"):  # numpy scalar
            return value.item()
        return str(value)


# ---------------------------------------------------------------------------
# Trace assembly
# ---------------------------------------------------------------------------


@dataclass
class AssembledTrace:
    """One batch's spans, causally linked into a single tree."""

    trace_id: str
    root: dict
    #: Every linked span record (root, coordinator, winning job attempts,
    #: synthetic lost-worker spans, re-parented lost-attempt fragments).
    spans: list[dict]
    children: dict[str, list[dict]] = field(default_factory=dict)
    #: job_id -> the attempt whose ``done`` record won.
    winners: dict[str, int] = field(default_factory=dict)
    #: Synthetic ``batch.lost-worker`` spans (subset of ``spans``).
    lost: list[dict] = field(default_factory=list)
    #: Records that could not be linked under the root.
    orphans: list[dict] = field(default_factory=list)
    #: Jobs with a journaled result but no exported spans (e.g. attempt
    #: exhaustion after repeated worker loss).
    unwitnessed: list[str] = field(default_factory=list)
    #: Fraction of worker-settled jobs whose job span chains to the root.
    completeness: float = 0.0
    #: Instant events for the Chrome exporter, read off the journal: one
    #: ``worker.lost`` per worker loss, one ``job.requeued`` per requeue.
    events: list[dict] = field(default_factory=list)

    def job_spans(self) -> list[dict]:
        """Winning-attempt spans only (the deterministic subset)."""
        return [r for r in self.spans
                if r.get("job_id")
                and r.get("attempt") == self.winners.get(r["job_id"])]


def _chains_to(record_id: str, by_id: Mapping[str, dict],
               root_id: str) -> bool:
    seen: set[str] = set()
    current = record_id
    while current and current not in seen:
        if current == root_id:
            return True
        seen.add(current)
        record = by_id.get(current)
        if record is None:
            return False
        current = record.get("parent_id", "")
    return False


def assemble_trace(span_records: Sequence[Mapping],
                   index: Mapping) -> AssembledTrace:
    """Merge sidecar spans + journal evidence into one tree.

    ``index`` is the folded jobs journal (``repro.control.jobs_db
    .fold_journal``).  Its evidence drives the decisions the spans alone
    cannot make:

    * which attempt *won* each job (the journaled ``done`` record);
    * which attempts were *lost* (a queued attempt that did not win —
      their partial spans hang under a synthetic ``batch.lost-worker``
      span closed at the attempt's requeue, or failing that the dead
      worker's last journal record);
    * the instant events: the journal's worker losses and requeues;
    * the trace id, when the coordinator's announce record is present
      (otherwise taken from the span records themselves).
    """
    spans = [dict(r) for r in span_records
             if r.get("type") == SPAN_RECORD]

    trace_id = index["trace"].get("trace_id", "")
    root_span_id = index["trace"].get("root_span_id", "")
    if not trace_id and spans:
        trace_id = spans[0].get("trace_id", "")
    if not trace_id:
        raise TelemetryError("no trace evidence: neither a trace announce "
                             "record nor any span records")

    # -- per-(job, attempt) evidence from the index -------------------------
    results = {job_id: entry["result"]
               for job_id, entry in index["jobs"].items() if entry["result"]}
    winners = {job_id: int(result.get("attempt", 1))
               for job_id, result in results.items()}
    runs = {(job_id, attempt): run
            for job_id, entry in index["jobs"].items()
            for attempt, run in entry["runs"].items()}
    # Each instant sits on the lane of the worker it is about.
    events = [{"name": "worker.lost", "shard": loss["worker"], **loss}
              for loss in index["lost"]]
    events += [{"name": "job.requeued", "shard": run["worker"],
                "ts": run["requeued_ts"], "worker": run["worker"],
                "job_id": job_id, "attempt": attempt}
               for (job_id, attempt), run in sorted(runs.items())
               if run["requeued_ts"] is not None]

    # -- the root -----------------------------------------------------------
    if not root_span_id:
        root_span_id = derive_span_id(trace_id, "batch")
    by_id: dict[str, dict] = {}
    root = None
    for record in spans:
        by_id[record["span_id"]] = record
        if record["span_id"] == root_span_id:
            root = record
    if root is None:
        root = {
            "type": SPAN_RECORD, "trace_id": trace_id,
            "span_id": root_span_id, "parent_id": "",
            "job_id": "", "attempt": 0, "name": "batch",
            "start_sim": 0.0, "end_sim": 0.0, "sim_duration": 0.0,
            "wall_ms": 0.0, "status": "ok", "error": "",
            "attributes": {"synthetic": True},
        }
        spans.append(root)
        by_id[root_span_id] = root

    # -- synthetic lost-worker spans ----------------------------------------
    # An attempt is lost when it was queued but a *different* attempt (or
    # none) produced the done record.  Its evidence-closed span adopts any
    # partial spans the dead attempt streamed out before the SIGKILL.
    lost: list[dict] = []
    lost_parent: dict[tuple[str, int], str] = {}
    for (job_id, attempt), run in sorted(runs.items()):
        if winners.get(job_id) == attempt:
            continue
        worker = run["worker"]
        start_ts = run["queued_ts"]
        end_ts = run["requeued_ts"]
        last_seen = index["workers"].get(worker, {}).get("ts", 0.0)
        if end_ts is None and last_seen > start_ts:
            end_ts = last_seen
        evidence = "none" if end_ts is None else "journal"
        end_ts = start_ts if end_ts is None else end_ts
        synthetic = {
            "type": SPAN_RECORD, "trace_id": trace_id,
            "span_id": derive_span_id(trace_id, "lost", job_id,
                                      str(attempt)),
            "parent_id": root_span_id,
            "job_id": job_id, "attempt": attempt,
            "name": LOST_WORKER_SPAN,
            "start_sim": 0.0, "end_sim": 0.0, "sim_duration": 0.0,
            "wall_ms": max(0.0, (end_ts - start_ts) * 1000.0),
            "status": STATUS_LOST, "error": "",
            "attributes": {"worker": worker, "evidence": evidence,
                           "start_ts": start_ts, "end_ts": end_ts,
                           "synthetic": True},
        }
        lost.append(synthetic)
        lost_parent[(job_id, attempt)] = synthetic["span_id"]
        spans.append(synthetic)
        by_id[synthetic["span_id"]] = synthetic

    # Re-parent lost attempts' dangling fragments under their synthetic
    # span.  A SIGKILLed attempt exports children before parents, so its
    # sidecar holds subtrees whose tops reference parent spans that never
    # finished: any fragment whose parent was not exported (or was the
    # batch root) adopts the synthetic lost-worker span as its parent;
    # deeper fragments keep their intra-attempt links and chain through.
    for record in spans:
        job_id = record.get("job_id", "")
        if not job_id or record.get("name") == LOST_WORKER_SPAN:
            continue
        attempt = int(record.get("attempt", 1))
        if winners.get(job_id) == attempt:
            continue
        synthetic_id = lost_parent.get((job_id, attempt))
        parent = record.get("parent_id", "")
        if synthetic_id and (parent == root_span_id
                             or parent not in by_id):
            record["parent_id"] = synthetic_id

    # -- link, detect orphans, score completeness ---------------------------
    children: dict[str, list[dict]] = {}
    orphans: list[dict] = []
    for record in spans:
        if record["span_id"] == root_span_id:
            continue
        if _chains_to(record["span_id"], by_id, root_span_id):
            children.setdefault(record.get("parent_id", ""),
                                []).append(record)
        else:
            orphans.append(record)
    for kids in children.values():
        kids.sort(key=lambda r: (r.get("job_id", ""),
                                 r.get("attempt", 0),
                                 r.get("span_id", "")))

    witnessed: set[str] = set()
    for record in spans:
        job_id = record.get("job_id", "")
        if (job_id and record.get("name") == "batch.job"
                and record.get("attempt") == winners.get(job_id)
                and _chains_to(record["span_id"], by_id, root_span_id)):
            witnessed.add(job_id)
    # Jobs whose winning record came from a live worker (anything but the
    # coordinator's attempt-exhaustion `error` synthesis) should all be
    # witnessed by an exported job span; `error` jobs never ran to a span.
    expected = {job_id for job_id, result in results.items()
                if result.get("outcome") in ("settled", "settled_degraded",
                                             "failed")}
    unwitnessed = sorted(expected - witnessed)
    completeness = (len(witnessed & expected) / len(expected)
                    if expected else 1.0)

    return AssembledTrace(
        trace_id=trace_id, root=root, spans=spans, children=children,
        winners=winners, lost=lost, orphans=orphans,
        unwitnessed=unwitnessed, completeness=completeness, events=events,
    )


# ---------------------------------------------------------------------------
# Chrome trace-event (catapult) export
# ---------------------------------------------------------------------------


def to_chrome_trace(assembled: AssembledTrace) -> dict:
    """Render an assembled trace in Chrome's trace-event JSON format.

    Load the output at ``chrome://tracing`` / https://ui.perfetto.dev.
    Spans become ``ph:"X"`` complete events on one thread lane per journal
    shard; worker deaths and requeues become ``ph:"i"`` instants.  Wall
    timestamps are approximated from each record's journal stamp minus its
    duration (cross-process ``perf_counter`` origins are not comparable),
    rebased so the earliest event sits at ts=0.
    """
    shards = sorted({r.get("shard", "") for r in assembled.spans} |
                    {e.get("shard", "") for e in assembled.events})
    tid_of = {shard: index + 1 for index, shard in enumerate(shards)}

    def end_ts_us(record: Mapping) -> float:
        return float(record.get("ts", 0.0)) * 1e6

    starts = []
    for record in assembled.spans:
        starts.append(end_ts_us(record) - float(record.get("wall_ms", 0.0))
                      * 1000.0)
    for event in assembled.events:
        starts.append(end_ts_us(event))
    base = min(starts) if starts else 0.0

    events: list[dict] = []
    for shard, tid in tid_of.items():
        events.append({
            "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
            "args": {"name": shard or "assembler"},
        })
    for record in sorted(assembled.spans,
                         key=lambda r: (r.get("shard", ""),
                                        r.get("seq", 0),
                                        r.get("span_id", ""))):
        duration_us = float(record.get("wall_ms", 0.0)) * 1000.0
        events.append({
            "ph": "X", "pid": 1,
            "tid": tid_of.get(record.get("shard", ""), 0) or 1,
            "name": record.get("name", "?"),
            "cat": ("lost" if record.get("status") == STATUS_LOST
                    else "span"),
            "ts": max(0.0, end_ts_us(record) - duration_us - base),
            "dur": duration_us,
            "id": record.get("span_id", ""),
            "args": {
                "span_id": record.get("span_id", ""),
                "parent_id": record.get("parent_id", ""),
                "job_id": record.get("job_id", ""),
                "attempt": record.get("attempt", 0),
                "status": record.get("status", "ok"),
                "sim_duration": record.get("sim_duration", 0.0),
            },
        })
    for event in assembled.events:
        events.append({
            "ph": "i", "pid": 1,
            "tid": tid_of.get(event.get("shard", ""), 0) or 1,
            "name": event.get("name", "event"),
            "cat": "event", "s": "g",
            "ts": max(0.0, end_ts_us(event) - base),
            "args": {k: v for k, v in event.items()
                     if k in ("job_id", "attempt", "worker", "reason")},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": assembled.trace_id,
                      "format": "pds2-chrome-trace/1"},
    }


def validate_chrome_trace(payload: Mapping, schema: Mapping) -> list[str]:
    """Validate a trace-event document against the checked-in schema.

    A deliberately small validator (no external jsonschema dependency)
    covering the subset ``docs/chrome-trace.schema.json`` uses: ``type``,
    ``required``, ``properties``, ``items``, ``enum``, ``minimum``.
    Returns a list of violations (empty = valid).
    """
    errors: list[str] = []
    _validate_node(payload, schema, "$", errors)
    return errors


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, Mapping),
    "array": lambda v: isinstance(v, (list, tuple)),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}


def _validate_node(value: Any, schema: Mapping, path: str,
                   errors: list[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        allowed = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS.get(t, lambda _: True)(value)
                   for t in allowed):
            errors.append(f"{path}: expected {expected}, "
                          f"got {type(value).__name__}")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append(f"{path}: {value} < minimum {schema['minimum']}")
    if isinstance(value, Mapping):
        for name in schema.get("required", ()):
            if name not in value:
                errors.append(f"{path}: missing required {name!r}")
        for name, sub in schema.get("properties", {}).items():
            if name in value:
                _validate_node(value[name], sub, f"{path}.{name}", errors)
    if isinstance(value, (list, tuple)) and "items" in schema:
        for index, item in enumerate(value):
            _validate_node(item, schema["items"], f"{path}[{index}]",
                           errors)


# ---------------------------------------------------------------------------
# Deterministic critical-path analysis
# ---------------------------------------------------------------------------


@dataclass
class CriticalPath:
    """Which job chain bounded the batch, on the sim clock only."""

    trace_id: str
    job_id: str
    total_sim: float
    #: Root-to-leaf heaviest chain: ``(name, sim_duration)`` pairs.
    chain: list[tuple[str, float]]
    #: Span name -> (total sim across winning attempts, span count).
    phase_totals: dict[str, tuple[float, int]]
    jobs_analyzed: int


def critical_path(assembled: AssembledTrace) -> CriticalPath:
    """Deterministic bottleneck analysis over winning-attempt spans.

    Everything here is a function of seed-determined data: sim durations,
    span names, job ids.  Wall clocks, worker identity, and attempt counts
    never enter, so two chaos-killed runs of one batch yield identical
    output — the E22 acceptance criterion.
    """
    job_spans = assembled.job_spans()
    by_job: dict[str, list[dict]] = {}
    for record in job_spans:
        by_job.setdefault(record["job_id"], []).append(record)

    totals: dict[str, float] = {}
    roots: dict[str, dict] = {}
    for job_id, records in by_job.items():
        root = next((r for r in records if r.get("name") == "batch.job"),
                    None)
        if root is None:
            continue
        roots[job_id] = root
        totals[job_id] = float(root.get("sim_duration", 0.0))

    phase_totals: dict[str, tuple[float, int]] = {}
    for record in sorted(job_spans,
                         key=lambda r: (r.get("job_id", ""),
                                        r.get("name", ""),
                                        float(r.get("start_sim", 0.0)))):
        name = record.get("name", "?")
        sim = float(record.get("sim_duration", 0.0))
        total, count = phase_totals.get(name, (0.0, 0))
        phase_totals[name] = (total + sim, count + 1)

    if not totals:
        return CriticalPath(assembled.trace_id, "", 0.0, [], phase_totals,
                            0)

    # Bounding job: max total sim, job id as the deterministic tie-break.
    bounding = max(sorted(totals), key=lambda j: (totals[j], j))
    records = by_job[bounding]
    kids: dict[str, list[dict]] = {}
    for record in records:
        kids.setdefault(record.get("parent_id", ""), []).append(record)

    chain: list[tuple[str, float]] = []
    current = roots[bounding]
    while current is not None:
        chain.append((current.get("name", "?"),
                      float(current.get("sim_duration", 0.0))))
        candidates = kids.get(current["span_id"], [])
        # Heaviest sim child; ties broken by (name, start_sim) which are
        # both seed-deterministic.
        current = max(
            sorted(candidates,
                   key=lambda r: (r.get("name", ""),
                                  float(r.get("start_sim", 0.0)))),
            key=lambda r: float(r.get("sim_duration", 0.0)),
            default=None,
        )
    return CriticalPath(assembled.trace_id, bounding, totals[bounding],
                        chain, phase_totals, len(roots))


def render_critical_path(path: CriticalPath) -> str:
    """Fixed-precision text report (byte-identical across replays)."""
    lines = [f"critical path — trace {path.trace_id}",
             f"jobs analyzed: {path.jobs_analyzed}",
             f"bounding job: {path.job_id or '(none)'} "
             f"total_sim={path.total_sim:.6f}"]
    for depth, (name, sim) in enumerate(path.chain):
        lines.append(f"{'  ' * depth}-> {name}  sim={sim:.6f}")
    lines.append("per-span sim totals (winning attempts):")
    for name in sorted(path.phase_totals):
        total, count = path.phase_totals[name]
        lines.append(f"  {name:<40} {total:>14.6f}  x{count}")
    return "\n".join(lines) + "\n"
