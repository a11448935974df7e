"""Trace assembly and the live ops plane over one batch directory.

Two consumers share this module:

* ``repro batch trace ROOT`` — offline assembly: merge the span sidecars,
  the jobs journal, and heartbeat evidence into one causally-linked tree
  (:func:`assemble_batch_trace`), render the deterministic critical-path
  report, and optionally export Chrome trace-event JSON.
* ``repro top ROOT`` — the live view: per-worker job states and heartbeat
  ages, per-job retry counts, outcome tallies, and SLO burn rates
  (:func:`ops_snapshot` / :func:`render_top`).  Everything reads the same
  torn-tail-tolerant files the coordinator writes, so ``top`` can watch a
  batch that is mid-flight — or post-mortem one whose coordinator died.

SLO burn convention (error-budget consumption, dimensionless):

* settled burn = (1 - settled_fraction) / (1 - objective) — how much of
  the failure budget the batch has eaten (1.0 = exactly at objective);
* latency burn = p95(job wall seconds) / objective seconds.

The p95 comes from a *local* :class:`MetricsRegistry` histogram rebuilt
from the journal on every snapshot, so the ops plane never mutates the
process-wide registry it is observing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.control.jobs_db import JobsDB
from repro.telemetry.distributed import (
    AssembledTrace,
    assemble_trace,
)
from repro.telemetry.metrics import LATENCY_BUCKETS_S, MetricsRegistry

#: Default SLO objectives for the burn gauges (overridable from the CLI).
DEFAULT_SETTLED_OBJECTIVE = 0.95
DEFAULT_P95_OBJECTIVE_S = 5.0

#: Heartbeat older than this is flagged stale in the top view (seconds).
STALE_HEARTBEAT_S = 15.0


def assemble_batch_trace(root: str) -> AssembledTrace:
    """Assemble the distributed trace of the batch at ``root``."""
    db = JobsDB.open(root)
    try:
        return assemble_trace(db.span_records(), db.journal_records(),
                              heartbeats=db.read_heartbeats())
    finally:
        db.close()


@dataclass
class OpsSnapshot:
    """One ``repro top`` refresh: everything the operator panel shows."""

    root: str
    batch_status: str
    trace_id: str
    jobs: int
    #: outcome/status -> count (settled, failed, running, queued, ...).
    counts: dict[str, int] = field(default_factory=dict)
    #: Jobs that needed more than one attempt: job_id -> attempts.
    retries: dict[str, int] = field(default_factory=dict)
    #: worker -> {status, job_id, age_s, stale, pid}.
    workers: dict[str, dict] = field(default_factory=dict)
    settled_fraction: float = 0.0
    p95_wall_s: float = 0.0
    #: Error-budget consumption (see module docstring); None until any
    #: job has settled or failed.
    settled_burn: Optional[float] = None
    p95_burn: Optional[float] = None
    worker_deaths: int = 0
    requeues: int = 0


def ops_snapshot(root: str, *,
                 settled_objective: float = DEFAULT_SETTLED_OBJECTIVE,
                 p95_objective_s: float = DEFAULT_P95_OBJECTIVE_S,
                 now: Optional[float] = None) -> OpsSnapshot:
    """Read the batch directory into one :class:`OpsSnapshot`."""
    now = time.time() if now is None else now
    db = JobsDB.open(root)
    try:
        index = db.compact()
        records = db.journal_records()
        beats = db.read_heartbeats()
    finally:
        db.close()

    trace_id = ""
    worker_deaths = 0
    requeues = 0
    for record in records:
        if record.get("type") == "trace":
            trace_id = record.get("trace_id", trace_id)
        elif record.get("type") == "batch":
            worker_deaths = int(record.get("worker_deaths", worker_deaths))
        elif (record.get("type") == "job"
                and record.get("status") == "requeued"):
            requeues += 1

    jobs = index.get("jobs", {})
    counts = dict(index.get("counts", {}))
    retries = {job_id: entry.get("attempts", 0)
               for job_id, entry in sorted(jobs.items())
               if entry.get("attempts", 0) > 1}

    # SLO burn: settled fraction over terminal jobs, p95 wall time over a
    # local registry histogram (never the process-wide one).
    registry = MetricsRegistry()
    wall_hist = registry.histogram(
        "pds2_ops_job_wall_seconds", "Job wall time (ops-plane local)",
        buckets=LATENCY_BUCKETS_S)
    terminal = 0
    settled = 0
    for entry in jobs.values():
        result = entry.get("result")
        if not result:
            continue
        terminal += 1
        if result.get("outcome") in ("settled", "settled_degraded"):
            settled += 1
        wall_hist.observe(float(result.get("wall_s", 0.0)))
    settled_fraction = settled / terminal if terminal else 0.0
    p95_wall_s = wall_hist.child().quantile(0.95)
    settled_burn = None
    p95_burn = None
    if terminal:
        budget = max(1e-9, 1.0 - settled_objective)
        settled_burn = (1.0 - settled_fraction) / budget
        p95_burn = p95_wall_s / max(1e-9, p95_objective_s)

    workers: dict[str, dict] = {}
    for worker, beat in sorted(beats.items()):
        age = max(0.0, now - float(beat.get("ts", 0.0)))
        workers[worker] = {
            "status": beat.get("status", "?"),
            "job_id": beat.get("job_id", ""),
            "age_s": age,
            "stale": age > STALE_HEARTBEAT_S,
            "pid": beat.get("pid", 0),
        }

    return OpsSnapshot(
        root=root,
        batch_status=index.get("batch", {}).get("status", "unknown"),
        trace_id=trace_id,
        jobs=len(jobs) or int(index.get("batch", {}).get("jobs", 0)),
        counts=counts,
        retries=retries,
        workers=workers,
        settled_fraction=settled_fraction,
        p95_wall_s=p95_wall_s,
        settled_burn=settled_burn,
        p95_burn=p95_burn,
        worker_deaths=worker_deaths,
        requeues=requeues,
    )


def _burn(value: Optional[float]) -> str:
    if value is None:
        return "-"
    flag = " !" if value > 1.0 else ""
    return f"{value:.2f}x{flag}"


def render_top(snap: OpsSnapshot) -> str:
    """Fixed-width text panel for one snapshot (the ``repro top`` body)."""
    lines = [
        f"batch {snap.root}  status={snap.batch_status}  jobs={snap.jobs}",
        f"trace {snap.trace_id or '(not announced)'}",
        "outcomes: " + (", ".join(
            f"{name}={snap.counts[name]}" for name in sorted(snap.counts))
            or "(none)"),
        (f"slo: settled={snap.settled_fraction:.3f} "
         f"burn={_burn(snap.settled_burn)}  "
         f"p95_wall={snap.p95_wall_s:.3f}s burn={_burn(snap.p95_burn)}"),
        (f"faults: worker_deaths={snap.worker_deaths} "
         f"requeues={snap.requeues}"),
    ]
    if snap.retries:
        tail = ", ".join(f"{job}x{attempts}" for job, attempts
                         in list(snap.retries.items())[:8])
        more = len(snap.retries) - 8
        if more > 0:
            tail += f" (+{more} more)"
        lines.append(f"retried jobs: {tail}")
    lines.append("workers:")
    if not snap.workers:
        lines.append("  (no heartbeats)")
    for worker, info in snap.workers.items():
        stale = "  STALE" if info["stale"] else ""
        job = info["job_id"] or "-"
        lines.append(f"  {worker:<8} {info['status']:<6} job={job:<12} "
                     f"beat={info['age_s']:.1f}s ago{stale}")
    return "\n".join(lines) + "\n"
