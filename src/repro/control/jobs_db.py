"""File-backed jobs database: append-only journal, compacted on read.

One batch lives in one directory::

    <root>/
      specs.jsonl          # submitted JobSpecs, one per line (written once)
      journal/<shard>.jsonl# append-only progress records, one shard per
                           # writer process (no cross-process file locking)
      spans/<shard>.jsonl  # span sidecars, one shard per writer process
      manifest.json        # final batch manifest (terminal states only)
      metrics.json         # coordinator registry snapshot (terminal states)

The journal is the only record of batch state: progress, worker liveness
and losses, and the operator kill (``repro batch kill`` journals a
``kill`` record into a shard of its own).  Every writer appends to its
*own* shard (stamped ``shard``/``seq``/``ts``), flushing per record, so a
SIGKILLed worker loses at most one torn final line — which the readers
tolerate, exactly like the event-trace JSONL format.  :func:`fold` is the
one reader of the records' vocabulary: ``compact()`` runs it over all
shards in ``(ts, shard, seq)`` order, and the coordinator over each record
it tails.  The index holds per-job status, attempt counts, checkpoint
digests per phase boundary, and any *divergence* (two attempts of one
deterministic job journaling different digests for the same boundary — a
determinism violation worth failing loudly over).  The index is computed
from the journal on every call and never persisted, so no reader can see
an older run's state.
"""

from __future__ import annotations

import json
import os
import time
from typing import IO, Any, Iterable, Optional

from repro.control.jobs import JobResult, JobSpec
from repro.errors import JobsDBError
from repro.utils.serialization import append_jsonl, read_jsonl

MANIFEST_FORMAT = "pds2-batch-manifest/1"

#: Batch states (the ``batch_execute`` state machine).
BATCH_PENDING = "pending"
BATCH_RUNNING = "running"
BATCH_DONE = "done"
BATCH_FAILED = "failed"
BATCH_PARTIAL_FAILED = "partial_failed"
BATCH_STATES = (BATCH_PENDING, BATCH_RUNNING, BATCH_DONE, BATCH_FAILED,
                BATCH_PARTIAL_FAILED)
TERMINAL_BATCH_STATES = (BATCH_DONE, BATCH_FAILED, BATCH_PARTIAL_FAILED)


def _read_shards(directory: str) -> list[dict]:
    """Every record of every ``*.jsonl`` shard in ``directory``, torn tails
    dropped, in ``(ts, shard, seq)`` order (per-shard order is exact;
    cross-shard order is wall-clock best-effort)."""
    records: list[dict] = []
    if os.path.isdir(directory):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".jsonl"):
                records.extend(read_jsonl(os.path.join(directory, name),
                                          JobsDBError))
    records.sort(key=lambda r: (r.get("ts", 0.0), r.get("shard", ""),
                                r.get("seq", 0)))
    return records


def fold_journal(records: Iterable[dict]) -> dict:
    """The index of ``records``, folded in the order given, with per-outcome
    ``counts`` (an outcome for settled jobs, a status for the rest)."""
    index: dict = {"batch": {"status": BATCH_PENDING}, "jobs": {},
                   "divergent": [], "trace": {}, "workers": {}, "lost": [],
                   "kill": None, "requeues": 0}
    for record in records:
        fold(index, record)
    counts: dict[str, int] = {}
    for entry in index["jobs"].values():
        result = entry["result"]
        outcome = result["outcome"] if result else entry["status"]
        counts[outcome] = counts.get(outcome, 0) + 1
    index["counts"] = counts
    return index


#: The state a job record leaves the worker it names in.
_WORKER_STATE = {"queued": "busy", "started": "busy", "checkpoint": "busy",
                 "done": "idle"}


def _move_worker(workers: dict, record: dict, ts: float) -> None:
    """The state of the worker ``record`` names: its status, the job and
    attempt it holds, and the stamp of the last record that moved it.  A
    lost worker stays lost: the coordinator's later records about its job
    name it too."""
    name = record.get("worker", "")
    kind = record.get("type")
    if kind == "worker_lost":
        status = "lost"
    elif kind == "job":
        status = _WORKER_STATE.get(record.get("status"))
    else:
        status = None
    if (not name or status is None
            or workers.get(name, {}).get("status") == "lost"):
        return
    held = status != "idle"
    workers[name] = {"status": status,
                     "job_id": record.get("job_id", "") if held else "",
                     "attempt": int(record.get("attempt", 0)) if held else 0,
                     "ts": ts}


def fold(index: dict, record: dict) -> Optional[dict]:
    """Fold one journal record into ``index``: the one reader of the
    journal's record vocabulary.

    Returns the result a ``done`` record carries, else None.  Beside
    per-job status, attempts, checkpoints and result, the index keeps
    what trace assembly and the console need: the trace announce, each
    queued attempt's worker and queued/requeued stamps (``runs``), each
    worker's last state, every worker loss with the job and attempt the
    worker held, the operator kill a run has not superseded, and requeues
    over the batch's whole life (every run of it).
    """
    ts = float(record.get("ts", 0.0))
    _move_worker(index["workers"], record, ts)
    kind = record.get("type")
    if kind == "batch":
        index["batch"] = {k: v for k, v in record.items()
                          if k not in ("type", "shard", "seq", "ts")}
        if record.get("status") == BATCH_RUNNING:
            index["kill"] = None  # a run supersedes any earlier kill
    elif kind == "kill":
        index["kill"] = {"reason": record.get("reason", ""), "ts": ts}
    elif kind == "trace":
        index["trace"] = {"trace_id": record.get("trace_id", ""),
                          "root_span_id": record.get("root_span_id", "")}
    elif kind == "worker_lost":
        index["lost"].append({"worker": record.get("worker", ""),
                              "reason": record.get("reason", ""),
                              "job_id": record.get("job_id", ""),
                              "attempt": int(record.get("attempt", 0)),
                              "ts": ts})
    if kind != "job":
        return None
    job_id = record.get("job_id", "")
    entry = index["jobs"].setdefault(job_id, {
        "status": "queued", "attempts": 0, "worker": "", "checkpoints": {},
        "result": None, "error": "", "runs": {},
    })
    status = record.get("status")
    attempt = int(record.get("attempt", 1))
    entry["attempts"] = max(entry["attempts"], attempt)
    if record.get("worker"):
        entry["worker"] = record["worker"]
    if status == "checkpoint":
        boundary = str(record.get("boundary", 0))
        digest = record.get("digest", "")
        previous = entry["checkpoints"].get(boundary)
        if previous is not None and previous["digest"] != digest:
            index["divergent"].append({
                "job_id": job_id, "boundary": int(boundary),
                "digests": [previous["digest"], digest],
            })
        entry["checkpoints"][boundary] = {
            "phase": record.get("phase", ""), "digest": digest,
        }
        entry["status"] = "running"
    elif status == "started":
        entry["status"] = "running"
    elif status == "requeued":
        entry["status"] = "queued"
        index["requeues"] += 1
        if attempt in entry["runs"]:
            entry["runs"][attempt]["requeued_ts"] = ts
    elif status == "done":
        entry["status"] = "done"
        entry["result"] = record.get("result")
        if record.get("result", {}).get("error"):
            entry["error"] = record["result"]["error"]
        return entry["result"]
    elif status == "queued":
        entry["runs"][attempt] = {"worker": record.get("worker", ""),
                                  "queued_ts": ts, "requeued_ts": None}
        if entry["status"] not in ("running", "done"):
            entry["status"] = "queued"
    return None


def _atomic_write_json(path: str, payload: Any) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")
    os.replace(tmp, path)


class JournalShard:
    """One writer's append-only journal file (flushes every record)."""

    def __init__(self, path: str, shard: str):
        self.path = path
        self.shard = shard
        self._seq = 0
        self._handle: Optional[IO[str]] = None

    def append(self, record: dict) -> dict:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._seq += 1
        stamped = dict(record)
        stamped["shard"] = self.shard
        stamped["seq"] = self._seq
        stamped["ts"] = time.time()
        append_jsonl(self._handle, stamped)
        return stamped

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()


class JobsDB:
    """One batch directory: specs, sharded journal, span sidecars."""

    def __init__(self, root: str):
        self.root = root
        self.specs_path = os.path.join(root, "specs.jsonl")
        self.journal_dir = os.path.join(root, "journal")
        self.spans_dir = os.path.join(root, "spans")
        self.manifest_path = os.path.join(root, "manifest.json")
        self._writers: dict[str, JournalShard] = {}
        self._span_writers: dict[str, JournalShard] = {}

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, root: str, specs: Iterable[JobSpec]) -> "JobsDB":
        """Initialize a batch directory and journal the PENDING state."""
        db = cls(root)
        if os.path.exists(db.specs_path):
            raise JobsDBError(f"batch already submitted at {root}")
        os.makedirs(db.journal_dir, exist_ok=True)
        specs = list(specs)
        if not specs:
            raise JobsDBError("a batch needs at least one job spec")
        seen: set[str] = set()
        for spec in specs:
            if spec.job_id in seen:
                raise JobsDBError(f"duplicate job id {spec.job_id!r}")
            seen.add(spec.job_id)
        tmp = f"{db.specs_path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            for spec in specs:
                handle.write(json.dumps(spec.to_dict(), sort_keys=True))
                handle.write("\n")
        os.replace(tmp, db.specs_path)
        db.append({"type": "batch", "status": BATCH_PENDING,
                   "jobs": len(specs)})
        return db

    @classmethod
    def open(cls, root: str) -> "JobsDB":
        db = cls(root)
        if not os.path.exists(db.specs_path):
            raise JobsDBError(f"no batch at {root} (missing specs.jsonl)")
        os.makedirs(db.journal_dir, exist_ok=True)
        return db

    def close(self) -> None:
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
        for writer in self._span_writers.values():
            writer.close()
        self._span_writers.clear()

    # -- specs --------------------------------------------------------------

    def specs(self) -> list[JobSpec]:
        return [JobSpec.from_dict(record)
                for record in read_jsonl(self.specs_path, JobsDBError)]

    # -- journal ------------------------------------------------------------

    def writer(self, shard: str = "coordinator") -> JournalShard:
        if shard not in self._writers:
            path = os.path.join(self.journal_dir, f"{shard}.jsonl")
            self._writers[shard] = JournalShard(path, shard)
        return self._writers[shard]

    def append(self, record: dict, shard: str = "coordinator") -> dict:
        return self.writer(shard).append(record)

    def request_kill(self, reason: str = "operator") -> dict:
        """Journal an operator kill into a shard of its own: the running
        coordinator folds it at its next poll and aborts the batch; a
        later run's ``running`` record supersedes it."""
        return self.append({"type": "kill", "reason": reason}, shard="kill")

    # -- span sidecars ------------------------------------------------------

    def span_writer(self, shard: str) -> JournalShard:
        """This writer's span sidecar (``spans/<shard>.jsonl``).

        Same discipline as the journal: one shard per writer process,
        append + flush per record, readers drop a torn final line.  Spans
        are kept out of the jobs journal so trace volume never slows the
        coordinator's tail-ingest of control records.
        """
        if shard not in self._span_writers:
            os.makedirs(self.spans_dir, exist_ok=True)
            path = os.path.join(self.spans_dir, f"{shard}.jsonl")
            self._span_writers[shard] = JournalShard(path, shard)
        return self._span_writers[shard]

    def span_records(self) -> list[dict]:
        """Every span-sidecar record across all shards (:func:`_read_shards`)."""
        return _read_shards(self.spans_dir)

    def journal_records(self) -> list[dict]:
        """Every journal record across all shards (:func:`_read_shards`);
        compaction only uses the cross-shard order for tie-breaking."""
        return _read_shards(self.journal_dir)

    # -- compaction ---------------------------------------------------------

    def compact(self) -> dict:
        """Fold the journal into the queryable index (:func:`fold_journal`)."""
        return fold_journal(self.journal_records())

    def checkpoints_for(self, job_id: str,
                        index: Optional[dict] = None) -> dict[int, str]:
        """Boundary index -> checkpoint digest, for replay-verified resume."""
        index = index if index is not None else self.compact()
        entry = index["jobs"].get(job_id, {})
        return {int(boundary): record["digest"]
                for boundary, record in entry.get("checkpoints", {}).items()}

    def results(self, index: Optional[dict] = None) -> dict[str, JobResult]:
        index = index if index is not None else self.compact()
        out = {}
        for job_id, entry in index["jobs"].items():
            if entry.get("result"):
                out[job_id] = JobResult.from_dict(entry["result"])
        return out

    # -- manifest -----------------------------------------------------------

    def write_manifest(self, manifest: dict) -> str:
        payload = dict(manifest)
        payload.setdefault("format", MANIFEST_FORMAT)
        _atomic_write_json(self.manifest_path, payload)
        return self.manifest_path

    def read_manifest(self) -> Optional[dict]:
        if not os.path.exists(self.manifest_path):
            return None
        with open(self.manifest_path, encoding="utf-8") as handle:
            return json.load(handle)
