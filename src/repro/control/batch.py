"""Batch execution: shard thousands of job specs across a worker pool.

The state machine (journaled into the batch's :class:`JobsDB`)::

    PENDING --start--> RUNNING --+--> DONE            all jobs settled
                                 +--> PARTIAL_FAILED  every failure is a
                                 |                    deterministic lifecycle
                                 |                    failure of a job that
                                 |                    had faults armed
                                 +--> FAILED          any unexpected error,
                                 |                    divergence, or attempt
                                 |                    exhaustion
                                 +--> FAILED          an operator kill record

Crash-safety posture: the *only* shared IPC is each worker's private task
queue, with the coordinator as sole producer and that worker as sole
consumer — a SIGKILL can lose at most the victim's own in-flight job, which
the coordinator already tracks and re-queues.  Results do not travel over a
queue at all: workers journal ``done`` records into their own shard files
(flushed per line) and the coordinator *tails* the journal for complete
lines.  The journal is also the liveness signal: a worker is dead when
``Process.is_alive`` says so, and hung when it is busy and its own records
have been silent for ``_SILENCE_TIMEOUT_S``.  A lost worker's job is
re-queued with ``attempt + 1`` and the boundary digests the dead attempt
journaled, so the replacement attempt replay-verifies determinism as it
resumes (see the supervisor).  Replacement workers — and the workers of a
resumed run — get fresh ids, and therefore fresh journal shards, so a
half-written shard is never appended to by two writers.

Calling :func:`batch_execute` on a directory with prior progress *resumes*
it: settled jobs are skipped, unfinished jobs re-queued from their
journaled checkpoints.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Callable, Optional, Sequence

from repro import telemetry
from repro.control.jobs import JOB_ERROR, JobResult, JobSpec
from repro.control.jobs_db import (
    BATCH_DONE,
    BATCH_FAILED,
    BATCH_PARTIAL_FAILED,
    BATCH_RUNNING,
    JobsDB,
    fold,
)
from repro.control.supervisor import JobContext, run_job
from repro.errors import BatchError, JobsDBError
from repro.telemetry.distributed import (
    CoordinatorSpanExporter,
    TraceContext,
    batch_trace_context,
)
from repro.utils.serialization import canonical_json_bytes, jsonl_record

_JOBS_TOTAL = telemetry.counter(
    "pds2_batch_jobs_total", "Batch jobs by terminal outcome",
    labelnames=("outcome",))
_WORKER_DEATHS = telemetry.counter(
    "pds2_batch_worker_deaths_total", "Workers lost during batch execution",
    labelnames=("reason",))
_REQUEUES = telemetry.counter(
    "pds2_batch_requeues_total", "Jobs re-queued after losing their worker")
_BATCHES = telemetry.counter(
    "pds2_batch_batches_total", "Batch executions by terminal state",
    labelnames=("status",))

#: Queue poll / supervision cadence (seconds).
_POLL_S = 0.05
#: A busy worker whose own journal records have been silent for this long
#: is reaped as hung.
_SILENCE_TIMEOUT_S = 60.0


def submit_batch(root: str, specs: Sequence[JobSpec]) -> JobsDB:
    """Create a batch directory in the PENDING state."""
    return JobsDB.create(root, specs)


@contextmanager
def _exporting(span_tracer, exporter):
    """Attach a span exporter for the duration of the block (always
    detached, so a failed batch never leaks an exporter onto the
    process-wide tracer)."""
    span_tracer.add_exporter(exporter)
    try:
        yield
    finally:
        span_tracer.remove_exporter(exporter)


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(root: str, worker_id: str, task_queue,
                 trace: TraceContext) -> None:
    """Worker loop: pull (spec, attempt, resume digests), run, journal.

    All output goes through this worker's own journal shard; the terminal
    ``done`` record is the result hand-off.  ``trace`` is the batch's
    context, handed over once at fork.  Exits on the ``None`` sentinel.
    """
    # The fork inherits the coordinator's tracer *with its exporter
    # attached* (and the coordinator's open sidecar handle).  Drop it:
    # this process must only ever export through its own JobSpanExporter
    # into its own shard, or two processes interleave one file.
    telemetry.tracer().exporters.clear()
    db = JobsDB.open(root)
    while True:
        item = task_queue.get()
        if item is None:
            break
        spec, attempt, resume_digests = item
        run_job(spec, JobContext(
            db=db, worker=worker_id, attempt=attempt,
            resume_digests=resume_digests,
            span_sink=db.span_writer(worker_id).append, trace=trace,
        ))
    db.close()


class _JournalTail:
    """Incremental reader over the journal shards: only complete lines.

    A line missing its trailing newline is an in-progress (or torn) write;
    it is left pending and re-examined on the next poll.  Offsets only ever
    advance past ``\\n``, so a SIGKILLed writer's torn tail is simply never
    consumed.  A complete line that is not a JSON object is corruption, as
    in ``read_jsonl``: it raises :class:`JobsDBError` naming shard and line.
    """

    def __init__(self, journal_dir: str):
        self.journal_dir = journal_dir
        self._offsets: dict[str, int] = {}
        self._lines: dict[str, int] = {}

    def poll(self) -> list[dict]:
        """The complete lines appended since the last poll, in the
        ``(ts, shard, seq)`` order ``compact()`` folds in."""
        records: list[dict] = []
        if not os.path.isdir(self.journal_dir):
            return records
        for name in sorted(os.listdir(self.journal_dir)):
            if not name.endswith(".jsonl"):
                continue
            path = os.path.join(self.journal_dir, name)
            offset = self._offsets.get(name, 0)
            with open(path, "rb") as handle:
                handle.seek(offset)
                data = handle.read()
            end = data.rfind(b"\n")
            if end < 0:
                continue
            self._offsets[name] = offset + end + 1
            for line in data[:end].decode("utf-8", "replace").split("\n"):
                self._lines[name] = self._lines.get(name, 0) + 1
                record = jsonl_record(line, self._lines[name], path,
                                      JobsDBError, final=False)
                if record is not None:
                    records.append(record)
        records.sort(key=lambda r: (r.get("ts", 0.0), r.get("shard", ""),
                                    r.get("seq", 0)))
        return records


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


@dataclass
class _Worker:
    worker_id: str
    process: object
    queue: object
    #: (job_id, attempt) currently assigned, or None (idle).
    assigned: Optional[tuple] = None
    #: Wall stamp of the assignment (the journal's clock).
    assigned_at: float = 0.0


@dataclass
class BatchReport:
    """What one :func:`batch_execute` call did."""

    status: str
    counts: dict[str, int]
    results: dict[str, JobResult]
    jobs: int
    workers: int
    worker_deaths: int
    requeues: int
    wall_s: float
    manifest_path: str = ""
    #: sha256 over the canonical {job_id: result_digest} mapping — two
    #: batch runs (or a batch and the single-process baseline) that agree
    #: here settled every session byte-identically.
    batch_digest: str = ""
    divergent: list[dict] = field(default_factory=list)
    aborted: bool = False
    #: Deterministic distributed-trace id (a digest of the spec digests).
    trace_id: str = ""


def batch_digest_of(results: dict[str, JobResult]) -> str:
    digests = {job_id: result.result_digest
               for job_id, result in results.items()}
    return sha256(canonical_json_bytes(digests)).hexdigest()


def batch_execute(root: str, workers: int = 4, *,
                  max_attempts: int = 3,
                  kill_after: Sequence[int] = (),
                  progress: Optional[Callable[[int, int], None]] = None,
                  ) -> BatchReport:
    """Run (or resume) every unfinished job in the batch at ``root``.

    ``kill_after`` is the chaos hook the CI smoke and E21 benchmark use:
    after the n-th result lands, one busy worker is SIGKILLed, exercising
    the dead-worker re-queue and replay-resume paths under realistic loss.
    """
    import multiprocessing

    if workers < 1:
        raise BatchError("batch_execute needs at least one worker")
    if max_attempts < 1:
        raise BatchError("batch_execute needs at least one attempt per job")
    db = JobsDB.open(root)
    specs = {spec.job_id: spec for spec in db.specs()}
    tail = _JournalTail(db.journal_dir)
    tail.poll()  # compact() folds the history; the tail folds what follows
    index = db.compact()

    results: dict[str, JobResult] = db.results(index)
    attempts: dict[str, int] = {
        job_id: entry.get("attempts", 0)
        for job_id, entry in index["jobs"].items()
    }
    pending = [job_id for job_id in specs if job_id not in results]
    total = len(specs)
    started = time.perf_counter()
    # The batch trace id digests the submitted spec digests, so workers
    # and offline assemblers derive the identical id from content alone.
    trace = batch_trace_context(
        spec.spec_digest() for spec in specs.values())
    db.append({"type": "batch", "status": BATCH_RUNNING, "jobs": total,
               "pending": len(pending), "workers": workers})
    db.append({"type": "trace", "trace_id": trace.trace_id,
               "root_span_id": trace.span_id})

    mp = multiprocessing.get_context("fork")
    pool: dict[str, _Worker] = {}
    next_worker = len(index["workers"])  # a resumed run's ids are fresh
    worker_deaths = 0
    requeues = 0
    done_this_run = 0
    reported_done = -1
    kill_thresholds = sorted(set(kill_after))
    aborted = False

    def spawn_worker() -> _Worker:
        nonlocal next_worker
        worker_id = f"w{next_worker}"
        next_worker += 1
        queue = mp.Queue()
        process = mp.Process(target=_worker_main,
                             args=(root, worker_id, queue, trace), daemon=True)
        process.start()
        worker = _Worker(worker_id=worker_id, process=process, queue=queue)
        pool[worker_id] = worker
        return worker

    def assign(worker: _Worker, job_id: str) -> None:
        attempt = attempts.get(job_id, 0) + 1
        attempts[job_id] = attempt
        task = (specs[job_id], attempt, db.checkpoints_for(job_id, index))
        worker.assigned = (job_id, attempt)
        worker.assigned_at = time.time()
        db.append({"type": "job", "job_id": job_id, "status": "queued",
                   "attempt": attempt, "worker": worker.worker_id})
        worker.queue.put(task)

    def reap(worker: _Worker, reason: str) -> None:
        """A worker is gone: account for it and rescue its job."""
        nonlocal worker_deaths, requeues
        worker_deaths += 1
        held_job, held_attempt = worker.assigned or ("", 0)
        db.append({"type": "worker_lost", "worker": worker.worker_id,
                   "reason": reason, "job_id": held_job,
                   "attempt": held_attempt})
        deaths = _WORKER_DEATHS.labels(reason=reason)
        deaths.inc()
        deaths.set_exemplar(trace_id=trace.trace_id)
        if worker.process.is_alive():  # hung, not dead: put it down
            os.kill(worker.process.pid, signal.SIGKILL)
        worker.process.join(timeout=5.0)
        worker.queue.close()
        del pool[worker.worker_id]
        if worker.assigned is not None:
            job_id, attempt = worker.assigned
            if job_id in results:
                return  # its done record landed before it died
            if attempt >= max_attempts:
                result = JobResult(
                    job_id=job_id, outcome=JOB_ERROR, attempt=attempt,
                    worker=worker.worker_id,
                    error=f"worker {worker.worker_id} lost ({reason}); "
                          f"attempt limit {max_attempts} reached",
                )
                db.append({"type": "job", "job_id": job_id, "status": "done",
                           "attempt": attempt, "worker": worker.worker_id,
                           "result": result.to_dict()})
                results[job_id] = result
                jobs_child = _JOBS_TOTAL.labels(outcome=JOB_ERROR)
                jobs_child.inc()
                jobs_child.set_exemplar(trace_id=trace.trace_id)
            else:
                requeues += 1
                _REQUEUES.inc()
                _REQUEUES.set_exemplar(trace_id=trace.trace_id)
                db.append({"type": "job", "job_id": job_id,
                           "status": "requeued", "attempt": attempt,
                           "worker": worker.worker_id})
                pending.insert(0, job_id)

    exporter = CoordinatorSpanExporter(
        trace, db.span_writer("coordinator").append)
    with _exporting(telemetry.tracer(), exporter), \
            telemetry.tracer().span("batch.execute", root=root, jobs=total,
                                    workers=workers,
                                    trace_id=trace.trace_id):
        for _ in range(min(workers, len(pending))):
            spawn_worker()
        try:
            while True:
                # 1. Fold journal growth into the index (fresh checkpoints
                # become resume digests, worker records their liveness); a
                # landed result frees its worker.
                for record in tail.poll():
                    landed = fold(index, record)
                    if landed is None or landed["job_id"] in results:
                        continue
                    result = JobResult.from_dict(landed)
                    results[result.job_id] = result
                    done_this_run += 1
                    jobs_child = _JOBS_TOTAL.labels(outcome=result.outcome)
                    jobs_child.inc()
                    jobs_child.set_exemplar(trace_id=trace.trace_id)
                    for worker in pool.values():
                        if (worker.assigned is not None
                                and worker.assigned[0] == result.job_id):
                            worker.assigned = None
                    if result.outcome == JOB_ERROR:
                        # Unexpected failure: no point burning the rest of
                        # the sweep; drain and report FAILED.
                        pending.clear()

                # 2. A journaled operator kill (after this run's start)
                # aborts the whole batch.
                if index["kill"] is not None:
                    aborted = True
                    break

                # 3. Dead workers, and busy ones whose journal is silent.
                for worker in list(pool.values()):
                    if not worker.process.is_alive():
                        reap(worker, reason="crash")
                        continue
                    seen = index["workers"].get(worker.worker_id, {})
                    quiet_since = max(worker.assigned_at, seen.get("ts", 0.0))
                    if (worker.assigned is not None
                            and time.time() - quiet_since > _SILENCE_TIMEOUT_S):
                        reap(worker, reason="hung")

                # 4. Keep the pool at strength while there is work left.
                outstanding = len(pending) + sum(
                    1 for w in pool.values() if w.assigned is not None)
                while pending and len(pool) < min(workers, outstanding):
                    spawn_worker()
                for worker in pool.values():
                    if worker.assigned is None and pending:
                        assign(worker, pending.pop(0))

                # 5. Chaos hook: SIGKILL one busy worker per threshold.  It
                # runs right after assignment so that a victim exists
                # whenever work is left: a job shorter than one poll interval
                # is never still in flight at the *start* of a poll.
                while kill_thresholds and done_this_run >= kill_thresholds[0]:
                    victim = next((w for w in pool.values()
                                   if w.assigned is not None), None)
                    if victim is None:
                        break  # nothing left to run
                    kill_thresholds.pop(0)
                    os.kill(victim.process.pid, signal.SIGKILL)
                    victim.process.join(timeout=5.0)
                    reap(victim, reason="chaos")

                if progress is not None:
                    done_total = len(results)
                    if done_total != reported_done:
                        reported_done = done_total
                        progress(done_total, total)
                if not pending and all(w.assigned is None
                                       for w in pool.values()):
                    break
                time.sleep(_POLL_S)
        finally:
            for worker in pool.values():
                if worker.process.is_alive():
                    try:
                        worker.queue.put(None)
                    except (ValueError, OSError):  # pragma: no cover
                        pass
            for worker in pool.values():
                worker.process.join(timeout=10.0)
                if worker.process.is_alive():
                    os.kill(worker.process.pid, signal.SIGKILL)
                    worker.process.join(timeout=5.0)
                worker.queue.close()
            pool.clear()

    # -- settle the batch state machine -------------------------------------
    status = _terminal_status(specs, results, aborted,
                              missing=[j for j in specs if j not in results])
    batches_child = _BATCHES.labels(status=status)
    batches_child.inc()
    batches_child.set_exemplar(trace_id=trace.trace_id)
    wall_s = time.perf_counter() - started
    counts: dict[str, int] = {}
    for result in results.values():
        counts[result.outcome] = counts.get(result.outcome, 0) + 1
    db.append({"type": "batch", "status": status, "jobs": total,
               "done": len(results), "worker_deaths": worker_deaths,
               "requeues": requeues, "wall_s": wall_s})
    index = db.compact()
    digest = batch_digest_of(results)
    manifest_path = db.write_manifest({
        "status": status,
        "trace_id": trace.trace_id,
        "jobs": total,
        "counts": counts,
        "worker_deaths": worker_deaths,
        "requeues": requeues,
        "workers": workers,
        "wall_s": wall_s,
        "batch_digest": digest,
        "divergent": index["divergent"],
        "results": {job_id: result.to_dict()
                    for job_id, result in sorted(results.items())},
    })
    telemetry.write_run_metrics(root)
    db.close()
    return BatchReport(
        status=status, counts=counts, results=results, jobs=total,
        workers=workers, worker_deaths=worker_deaths, requeues=requeues,
        wall_s=wall_s, manifest_path=manifest_path, batch_digest=digest,
        divergent=list(index["divergent"]), aborted=aborted,
        trace_id=trace.trace_id,
    )


def _terminal_status(specs: dict[str, JobSpec],
                     results: dict[str, JobResult],
                     aborted: bool, missing: Sequence[str]) -> str:
    """PARTIAL_FAILED only when every failure was an *expected* one: a
    deterministic lifecycle failure of a job that had fault injection
    armed.  Anything else — handler errors, divergence, lost attempts,
    unfinished jobs, operator abort — is FAILED."""
    if aborted or missing:
        return BATCH_FAILED
    failures = [r for r in results.values() if not r.ok]
    if not failures:
        return BATCH_DONE
    for result in failures:
        spec = specs.get(result.job_id)
        if result.outcome != "failed" or spec is None or spec.fault_rate <= 0:
            return BATCH_FAILED
    return BATCH_PARTIAL_FAILED
