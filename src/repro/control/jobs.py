"""Job specifications and results: the unit of work the control plane moves.

A :class:`JobSpec` is a *self-contained, deterministic* description of one
workload session: seed, workload name, parameters, and the
fault-injection rate.  Self-contained matters — any worker process (or the
single-process baseline) must be able to rebuild the exact same marketplace
and fault plan from the spec alone, which is what makes sharding, dead-worker
re-queue and replay-based resume sound.  Fault plans derive from the spec id
via :func:`repro.core.resilience.job_fault_seed`, never from process state.

A :class:`JobResult` is the terminal record a job returns: the outcome
class, the finished session's digest over every seed-determined field
(the byte-identity witness the E21 acceptance criterion compares
across sharded and baseline runs), and accounting counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Mapping

from repro.errors import JobsDBError
from repro.utils.serialization import canonical_json_bytes

#: Job outcomes.  ``settled``/``settled_degraded`` are successes; ``failed``
#: is a *deterministic* lifecycle failure (e.g. an unrecoverable injected
#: fault) — expected for intentionally-faulted jobs; ``error`` is an
#: unexpected job/infrastructure failure and always fails the batch.
JOB_SETTLED = "settled"
JOB_SETTLED_DEGRADED = "settled_degraded"
JOB_FAILED = "failed"
JOB_ERROR = "error"
JOB_OUTCOMES = (JOB_SETTLED, JOB_SETTLED_DEGRADED, JOB_FAILED, JOB_ERROR)

#: The one workload the supervisor runs: one ML training lifecycle.
WORKLOAD = "ml-train"


@dataclass(frozen=True)
class JobSpec:
    """One deterministic unit of batch work."""

    job_id: str
    seed: int
    #: Part of the spec format (and so of every digest); the supervisor
    #: runs :data:`WORKLOAD` and fails a job that names another.
    workload: str = WORKLOAD
    #: Workload parameters (provider/executor counts, samples,
    #: steps…).  Must be canonically serializable.
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Per-actor fault probability; 0 disables injection.  The plan is
    #: drawn from ``job_fault_seed(job_id)`` so it is shard-invariant.
    fault_rate: float = 0.0
    #: Recover from faults (False reproduces the fail-fast baseline).
    recover: bool = True

    def __post_init__(self) -> None:
        if not self.job_id:
            raise JobsDBError("job_id must be non-empty")
        object.__setattr__(self, "params", dict(self.params))

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "seed": self.seed,
            "workload": self.workload,
            "params": dict(self.params),
            "fault_rate": self.fault_rate,
            "recover": self.recover,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "JobSpec":
        try:
            return cls(
                job_id=record["job_id"],
                seed=int(record["seed"]),
                workload=record.get("workload", WORKLOAD),
                params=record.get("params", {}),
                fault_rate=float(record.get("fault_rate", 0.0)),
                recover=bool(record.get("recover", True)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JobsDBError(f"malformed job spec: {exc}") from exc

    def spec_digest(self) -> str:
        """Canonical content address of this spec."""
        return sha256(canonical_json_bytes(self.to_dict())).hexdigest()


@dataclass
class JobResult:
    """What one job terminated as (written to the journal and manifest)."""

    job_id: str
    outcome: str
    #: The finished session's ``digest()``: equal digests mean two runs of
    #: this job settled byte-identically.
    result_digest: str = ""
    session_id: str = ""
    gas_used: int = 0
    blocks_mined: int = 0
    faults_injected: int = 0
    recoveries: int = 0
    boundaries: int = 0
    #: Boundary index replay-verification resumed past (attempt > 1 only).
    resumed_boundary: int = -1
    attempt: int = 1
    worker: str = ""
    wall_s: float = 0.0
    error: str = ""

    def __post_init__(self) -> None:
        if self.outcome not in JOB_OUTCOMES:
            raise JobsDBError(f"unknown job outcome {self.outcome!r}")

    @property
    def ok(self) -> bool:
        return self.outcome in (JOB_SETTLED, JOB_SETTLED_DEGRADED)

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "outcome": self.outcome,
            "result_digest": self.result_digest,
            "session_id": self.session_id,
            "gas_used": self.gas_used,
            "blocks_mined": self.blocks_mined,
            "faults_injected": self.faults_injected,
            "recoveries": self.recoveries,
            "boundaries": self.boundaries,
            "resumed_boundary": self.resumed_boundary,
            "attempt": self.attempt,
            "worker": self.worker,
            "wall_s": self.wall_s,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "JobResult":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in record.items() if k in known})
