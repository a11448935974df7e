"""File-backed jobs database: append-only journal, compacted on read.

One batch lives in one directory::

    <root>/
      specs.jsonl          # submitted JobSpecs, one per line (written once)
      journal/<shard>.jsonl# append-only progress records, one shard per
                           # writer process (no cross-process file locking)
      spans/<shard>.jsonl  # span sidecars, one shard per writer process
      manifest.json        # final batch manifest (terminal states only)
      metrics.json         # coordinator registry snapshot (terminal states)
      heartbeats/<id>.json # per-worker liveness beacons
      KILL                 # operator kill sentinel (``repro batch kill``)

The journal is the source of truth.  Every writer appends to its *own*
shard (stamped ``shard``/``seq``/``ts``), flushing per record, so a
SIGKILLed worker loses at most one torn final line — which the readers
tolerate, exactly like the event-trace JSONL format.  ``compact()`` merges
all shards in ``(ts, shard, seq)`` order into a queryable index: per-job
status, attempt counts, checkpoint digests per phase boundary, and any
*divergence* (two attempts of one deterministic job journaling different
digests for the same boundary — a determinism violation worth failing
loudly over).  The index is computed from the journal on every call and
never persisted, so no reader can see an older run's state.
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
    """One batch directory: specs, sharded journal, liveness."""

    def __init__(self, root: str):
        self.root = root
        self.specs_path = os.path.join(root, "specs.jsonl")
        self.journal_dir = os.path.join(root, "journal")
        self.spans_dir = os.path.join(root, "spans")
        self.manifest_path = os.path.join(root, "manifest.json")
        self.heartbeat_dir = os.path.join(root, "heartbeats")
        self.kill_path = os.path.join(root, "KILL")
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
        os.makedirs(db.heartbeat_dir, exist_ok=True)
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
        os.makedirs(db.heartbeat_dir, exist_ok=True)
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
        """Fold the journal into the queryable index."""
        jobs: dict[str, dict] = {}
        batch: dict = {"status": BATCH_PENDING}
        divergent: list[dict] = []
        for record in self.journal_records():
            kind = record.get("type")
            if kind == "batch":
                batch = {k: v for k, v in record.items()
                         if k not in ("type", "shard", "seq", "ts")}
            elif kind == "job":
                job_id = record.get("job_id", "")
                entry = jobs.setdefault(job_id, {
                    "status": "queued", "attempts": 0, "worker": "",
                    "checkpoints": {}, "result": None, "error": "",
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
                        divergent.append({
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
                elif status == "done":
                    entry["status"] = "done"
                    entry["result"] = record.get("result")
                    if record.get("result", {}).get("error"):
                        entry["error"] = record["result"]["error"]
                elif status == "queued":
                    if entry["status"] not in ("running", "done"):
                        entry["status"] = "queued"
        counts: dict[str, int] = {}
        for entry in jobs.values():
            result = entry.get("result")
            outcome = result["outcome"] if result else entry["status"]
            counts[outcome] = counts.get(outcome, 0) + 1
        return {"batch": batch, "jobs": jobs, "counts": counts,
                "divergent": divergent}

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

    # -- liveness -----------------------------------------------------------

    def heartbeat(self, worker: str, payload: dict) -> None:
        stamped = dict(payload)
        stamped["ts"] = time.time()
        _atomic_write_json(
            os.path.join(self.heartbeat_dir, f"{worker}.json"), stamped
        )

    def read_heartbeats(self) -> dict[str, dict]:
        beats: dict[str, dict] = {}
        if not os.path.isdir(self.heartbeat_dir):
            return beats
        for name in os.listdir(self.heartbeat_dir):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.heartbeat_dir, name),
                          encoding="utf-8") as handle:
                    beats[name[:-5]] = json.load(handle)
            except (json.JSONDecodeError, OSError):  # mid-replace race
                continue
        return beats

    # -- operator kill ------------------------------------------------------

    def request_kill(self, reason: str = "operator") -> None:
        _atomic_write_json(self.kill_path,
                           {"reason": reason, "ts": time.time()})

    def kill_requested(self) -> Optional[dict]:
        if not os.path.exists(self.kill_path):
            return None
        try:
            with open(self.kill_path, encoding="utf-8") as handle:
                return json.load(handle)
        except (json.JSONDecodeError, OSError):
            return {"reason": "unreadable"}

    def clear_kill(self) -> None:
        if os.path.exists(self.kill_path):
            os.remove(self.kill_path)

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
