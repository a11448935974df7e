"""Job supervisor: handler registry + checkpointed single-job execution.

A *handler* turns one :class:`~repro.control.jobs.JobSpec` into one
:class:`~repro.control.jobs.JobResult`, building its entire world (market,
actors, fault plan) from the spec's seed so any process produces the same
bytes.  The built-in ``ml-train`` handler runs one lean training lifecycle —
the unit of work the E21 10k-session sweep shards.

:func:`run_job` wraps a handler with the control-plane contract:

* telemetry isolation — ``telemetry.reset()`` per job, so the tracer's
  span ids restart and a job's exported spans are a function of the job
  alone, not of what the worker ran before it;
* boundary checkpoints — an ``on_phase_boundary`` hook journals the
  session's :meth:`~repro.core.lifecycle.WorkloadSession.digest` at every
  phase boundary;
* replay-verified resume — a re-queued attempt replays the job from its
  seed and *verifies* each boundary digest against what the dead worker
  journaled.  Live enclave/chain state dies with a process, so this is the
  one way back from a crash (a session that was merely paused is still an
  object: ``run()`` again).  A mismatch is a determinism violation and
  raises :class:`ControlPlaneError`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Callable, Optional

import numpy as np

from repro import telemetry
from repro.control.jobs import JOB_ERROR, JobResult, JobSpec
from repro.control.jobs_db import JobsDB
from repro.errors import ControlPlaneError
from repro.utils.serialization import canonical_json_bytes

#: Handler registry: workload name -> callable(spec, ctx) -> JobResult.
HANDLERS: dict[str, Callable[["JobSpec", "JobContext"], JobResult]] = {}


def handler(name: str):
    """Register a workload handler under ``name`` (decorator)."""
    def register(func):
        HANDLERS[name] = func
        return func
    return register


@dataclass
class JobContext:
    """What the control plane threads into a handler invocation."""

    #: Journal destination; ``None`` runs the job bare (the single-process
    #: baseline path used for digest comparison).
    db: Optional[JobsDB] = None
    shard: str = ""
    worker: str = ""
    attempt: int = 1
    #: Boundary index -> digest journaled by a previous attempt; replay
    #: must reproduce these byte-for-byte before running past them.
    resume_digests: dict[int, str] = field(default_factory=dict)
    #: Liveness callback, invoked at each boundary (throttled by caller).
    heartbeat: Optional[Callable[[dict], None]] = None
    #: Where exported span records go (one dict per finished span); the
    #: worker points this at its ``spans/<worker>.jsonl`` sidecar.  None
    #: keeps tracing in-process only (the bare baseline path).
    span_sink: Optional[Callable[[dict], None]] = None

    def journal(self, record: dict) -> None:
        if self.db is not None:
            payload = dict(record)
            payload.setdefault("type", "job")
            payload.setdefault("worker", self.worker)
            payload.setdefault("attempt", self.attempt)
            self.db.append(payload, shard=self.shard or "coordinator")


class BoundaryRecorder:
    """The ``on_phase_boundary`` hook for one job attempt.

    Counts boundaries (the phase sequence is seed-deterministic, so the
    running index is a stable coordinate across attempts), journals each
    checkpoint digest, and cross-checks any digest a prior attempt already
    journaled at the same boundary.
    """

    def __init__(self, spec: JobSpec, ctx: JobContext):
        self.spec = spec
        self.ctx = ctx
        self.boundaries = 0
        self.resumed_boundary = -1

    def __call__(self, session, next_phase: str) -> None:
        boundary = self.boundaries
        self.boundaries += 1
        digest = session.digest()
        expected = self.ctx.resume_digests.get(boundary)
        if expected is not None:
            if digest != expected:
                raise ControlPlaneError(
                    f"job {self.spec.job_id} diverged on replay at boundary "
                    f"{boundary} ({session.state} -> {next_phase}): "
                    f"journaled {expected[:12]}…, replayed {digest[:12]}…"
                )
            self.resumed_boundary = max(self.resumed_boundary, boundary)
        self.ctx.journal({
            "job_id": self.spec.job_id, "status": "checkpoint",
            "boundary": boundary, "phase": next_phase,
            "state": session.state, "digest": digest,
        })
        if self.ctx.heartbeat is not None:
            self.ctx.heartbeat({"job_id": self.spec.job_id,
                                "boundary": boundary})


def result_digest_of(outcome) -> str:
    """Canonical digest over every seed-determined settlement field.

    Equal digests between a sharded run and the single-process baseline is
    the E21 byte-identity acceptance criterion; wall clocks and worker
    identity deliberately excluded.
    """
    report = outcome.report
    summary = {
        "session_id": outcome.session_id,
        "outcome": outcome.outcome,
        "session_state": outcome.session_state,
        "contract_state": outcome.contract_state,
        "result_hash": "" if report is None else report.result_hash,
        "params": (None if report is None
                   else np.asarray(report.final_params, dtype=float)),
        "consumer_score": None if report is None else report.consumer_score,
        "weights_bps": {} if report is None else dict(report.weights_bps),
        "payouts": dict(outcome.payouts),
        "refunded": outcome.refunded,
        "degraded": outcome.degraded,
        "blacklisted": sorted(outcome.blacklisted),
        "dropped_providers": sorted(outcome.dropped_providers),
        "recoveries": outcome.recoveries,
        "injected": outcome.injected,
        "gas_used": outcome.gas_used,
        "blocks_mined": outcome.blocks_mined,
        "audit_clean": None if report is None else bool(report.audit.clean),
        "error": outcome.error,
    }
    return sha256(canonical_json_bytes(summary)).hexdigest()


# ---------------------------------------------------------------------------
# Built-in handler: one lean ML-training lifecycle per job
# ---------------------------------------------------------------------------

#: Calibrated for sweep throughput (~tens of ms/job): minimal quorum, one
#: validator, no deed minting, no private validation set.
ML_TRAIN_DEFAULTS = {
    "providers": 2,
    "executors": 2,
    "samples": 240,
    "steps": 12,
    "reward_pool": 600_000,
    "min_providers": 2,
    "min_samples": 20,
    "confirmations": 1,
    "validators": 1,
}


def build_ml_market(spec: JobSpec):
    """Deterministically rebuild the job's marketplace from its spec."""
    from repro.core import Marketplace, ModelSpec, TrainingSpec, WorkloadSpec
    from repro.ml.datasets import make_iot_activity, split_dirichlet
    from repro.storage.semantic import ConceptRequirement, SemanticAnnotation

    params = dict(ML_TRAIN_DEFAULTS)
    params.update(spec.params)
    rng = np.random.default_rng(spec.seed)
    data = make_iot_activity(int(params["samples"]), rng)
    parts = split_dirichlet(data, int(params["providers"]), 1.0, rng,
                            min_samples=15)
    market = Marketplace(seed=spec.seed, validators=int(params["validators"]),
                         mint_deeds=False)
    provider_names = tuple(f"u{i}" for i in range(int(params["providers"])))
    executor_names = tuple(f"e{i}" for i in range(int(params["executors"])))
    for index, part in enumerate(parts):
        market.add_provider(provider_names[index], part,
                            SemanticAnnotation("heart_rate", {}))
    consumer = market.add_consumer("c")
    for name in executor_names:
        market.add_executor(name)
    workload = WorkloadSpec(
        workload_id=f"wl-{spec.job_id}",
        requirement=ConceptRequirement("physiological"),
        model=ModelSpec(family="softmax", num_features=6, num_classes=5),
        training=TrainingSpec(steps=int(params["steps"]), learning_rate=0.3),
        reward_pool=int(params["reward_pool"]),
        min_providers=int(params["min_providers"]),
        min_samples=int(params["min_samples"]),
        required_confirmations=int(params["confirmations"]),
    )
    return market, consumer, workload, executor_names, provider_names


@handler("ml-train")
def run_ml_train(spec: JobSpec, ctx: JobContext) -> JobResult:
    """One full lifecycle session; faults drawn from the job's own seed."""
    from repro.core import FaultPlan, run_with_faults

    market, consumer, workload, executor_names, provider_names = (
        build_ml_market(spec)
    )
    plan = FaultPlan.for_job(spec.job_id, spec.fault_rate,
                             executor_names, provider_names)
    recorder = BoundaryRecorder(spec, ctx)
    outcome = run_with_faults(market, consumer, workload, plan,
                              recover=spec.recover,
                              on_phase_boundary=recorder)
    return JobResult(
        job_id=spec.job_id,
        outcome=outcome.outcome,
        result_digest=result_digest_of(outcome),
        session_id=outcome.session_id,
        gas_used=outcome.gas_used,
        blocks_mined=outcome.blocks_mined,
        faults_injected=len(outcome.injected),
        recoveries=len(outcome.recoveries),
        boundaries=recorder.boundaries,
        resumed_boundary=recorder.resumed_boundary,
        error=outcome.error,
    )


# ---------------------------------------------------------------------------
# The supervisor entry point
# ---------------------------------------------------------------------------


def run_job(spec: JobSpec, ctx: Optional[JobContext] = None) -> JobResult:
    """Execute one job under the control-plane contract.

    Never raises: an unknown workload or a handler exception (including
    replay divergence) terminates as outcome ``error``, which the batch
    state machine treats as fatal.  The terminal record is journaled here
    so a result survives even if the worker dies immediately after.
    """
    from repro.errors import TelemetryError
    from repro.telemetry.distributed import JobSpanExporter, TraceContext

    ctx = ctx if ctx is not None else JobContext()
    telemetry.reset()
    # Re-anchor the tracer's sim clock too: ``reset()`` leaves it bound to
    # the *previous* job's marketplace, so this job's root span would open
    # at whatever sim time that run ended on — making its sim_duration
    # depend on worker scheduling.  Zeroed here (and re-bound by the
    # handler's own Marketplace), the span's sim window is a pure function
    # of the job, which the critical-path determinism guarantee needs.
    telemetry.tracer().sim_clock = lambda: 0.0
    spec_digest = spec.spec_digest()
    trace: Optional[TraceContext] = None
    if spec.trace_parent:
        try:
            trace = TraceContext.from_traceparent(spec.trace_parent)
        except TelemetryError:
            trace = None  # a malformed traceparent must never fail the job
    exporter = None
    span_tracer = telemetry.tracer()
    if trace is not None and ctx.span_sink is not None:
        # telemetry.reset() restarts the tracer's local id counter, so the
        # exported span ids are pure functions of (trace, spec, attempt).
        exporter = JobSpanExporter(trace, spec.job_id, spec_digest,
                                   ctx.attempt, ctx.span_sink)
        span_tracer.add_exporter(exporter)
    started = time.perf_counter()
    ctx.journal({"job_id": spec.job_id, "status": "started",
                 "spec_digest": spec_digest})
    job_handler = HANDLERS.get(spec.workload)
    try:
        if trace is not None:
            span_tracer.context["trace_id"] = trace.trace_id
        if job_handler is None:
            raise ControlPlaneError(
                f"no handler registered for workload {spec.workload!r}"
            )
        with span_tracer.span("batch.job", job_id=spec.job_id,
                              workload=spec.workload, attempt=ctx.attempt):
            result = job_handler(spec, ctx)
    except Exception as exc:  # noqa: BLE001 - the journal is the report
        result = JobResult(job_id=spec.job_id, outcome=JOB_ERROR,
                           error=f"{type(exc).__name__}: {exc}")
    finally:
        if exporter is not None:
            span_tracer.remove_exporter(exporter)
        span_tracer.context.pop("trace_id", None)
    result.worker = ctx.worker
    result.attempt = ctx.attempt
    result.wall_s = time.perf_counter() - started
    ctx.journal({"job_id": spec.job_id, "status": "done",
                 "result": result.to_dict()})
    return result
