"""The workload lifecycle engine: paper Fig. 2 as an explicit state machine.

One :class:`WorkloadSession` drives a workload through nine typed phases —

    deploy → match → register_executors → attest_and_submit
           → start_execution → execute → aggregate → settle → audit

— with a transition table read off that order (:data:`TRANSITIONS`),
per-phase failure classes (:class:`repro.errors.LifecycleError`
subclasses), and a structured event trail published on the marketplace
:class:`~repro.core.events.EventBus`.

What *kind* of workload runs is a strategy object (:class:`WorkloadKind`):
ML training (:class:`MLTrainingKind`) and statistical aggregates
(:class:`AggregateWorkloadKind`) differ only in the enclave entry point
and the way enclave outputs are combined (the kind-specific fields land
in ``ctx.extra``); the adversary harness is a kind whose settle votes lie.
``Marketplace.run_workload`` and ``Marketplace.run_aggregate_workload``
are thin drivers over this one engine; like every driver they return the
finished session.

A phase is a function of the session and none of them mines (see
:class:`LifecyclePhase`): an on-chain phase is a generator that sends and
then waits for its block inline.

Failures need not be terminal.  A session built with ``recover=True``
consults :func:`repro.core.resilience.decide` whenever a phase raises: it
may direct a **retry** of the same phase (backoff on the sim
clock), a **re-match** onto the surviving executors (re-entering
``register_executors`` with the dead executor blacklisted), a quorum
**degrade** (proceed with the executors that still hold data), or a
provider **drop** — each a declared edge in :data:`RECOVERY_TRANSITIONS`.
Without recovery the session fails; a failing session that already
escrowed funds aborts the workload contract so the consumer is refunded.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from hashlib import sha256
from inspect import isgenerator
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

import numpy as np

from repro.core.actors import ConsumerActor, ExecutorActor, ProviderActor, result_hash_of
from repro.core.aggregates import (
    AggregateSpec,
    aggregate_enclave_entry_point,
    combine_aggregate_outputs,
)
from repro.core.events import LifecycleEvent
from repro.core.workload import WorkloadSpec
from repro.crypto.hashing import hash_object
from repro.errors import (
    AggregationFailure,
    AuditFailure,
    DeployFailure,
    ExecutionFailure,
    LifecycleError,
    MarketplaceError,
    MatchFailure,
    PDS2Error,
    RegistrationFailure,
    SettlementFailure,
    StartFailure,
    SubmissionFailure,
    TransitionError,
)
from repro.governance.audit import AuditReport, audit_workload, trail_covers_chain
from repro.governance.contracts import (
    STATE_COMPLETE,
    STATE_EXECUTING,
    STATE_OPEN,
)
from repro.rewards.distribution import normalize_weights_bps
from repro.storage.semantic import Requirement
from repro.tee.enclave import EnclaveCode
from repro.telemetry import metrics as _tm
from repro.utils.rng import derive_rng
from repro.utils.serialization import canonical_json_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.chain.blockchain import Wallet
    from repro.chain.transaction import Receipt
    from repro.core.marketplace import Marketplace
    from repro.core.resilience import FaultInjector


# ---------------------------------------------------------------------------
# Phase state machine
# ---------------------------------------------------------------------------

STATE_CREATED = "created"
PHASE_DEPLOY = "deploy"
PHASE_MATCH = "match"
PHASE_REGISTER = "register_executors"
PHASE_SUBMIT = "attest_and_submit"
PHASE_START = "start_execution"
PHASE_EXECUTE = "execute"
PHASE_AGGREGATE = "aggregate"
PHASE_SETTLE = "settle"
PHASE_AUDIT = "audit"
TERMINAL_COMPLETE = "complete"
TERMINAL_FAILED = "failed"

#: Recovery re-entry edges layered over the happy path, exactly the ones
#: :func:`repro.core.resilience.decide` returns: every phase may retry
#: itself (transient faults back off on the sim clock; a provider that
#: keeps failing is dropped and the phase re-run), a crash discovered while
#: the contract is still OPEN re-enters ``register_executors`` with the
#: dead executor blacklisted, and a crash during ``execute`` re-enters the
#: same phase over the surviving quorum.
RECOVERY_TRANSITIONS: dict[str, tuple[str, ...]] = {
    PHASE_DEPLOY: (PHASE_DEPLOY,),
    PHASE_MATCH: (PHASE_MATCH,),
    PHASE_REGISTER: (PHASE_REGISTER,),
    PHASE_SUBMIT: (PHASE_SUBMIT, PHASE_REGISTER),
    PHASE_START: (PHASE_START,),
    PHASE_EXECUTE: (PHASE_EXECUTE,),
    PHASE_AGGREGATE: (PHASE_AGGREGATE,),
    PHASE_SETTLE: (PHASE_SETTLE,),
    PHASE_AUDIT: (PHASE_AUDIT,),
}

TERMINAL_STATES = (TERMINAL_COMPLETE, TERMINAL_FAILED)

#: What :meth:`WorkloadSession.steps` yields when it needs a block:
#: :meth:`Marketplace.drive` mines one and resumes it.
AWAIT = "await"

#: Layout tag of :meth:`WorkloadSession.record`, part of every digest; bump
#: it when a field is added, removed or changes meaning.
CHECKPOINT_FORMAT = "pds2-session-checkpoint/1"

# Recovery observability: every applied directive and every terminal
# session outcome is counted process-wide (exported by `repro metrics`).
_RECOVERY_ACTIONS = _tm.counter(
    "pds2_lifecycle_recovery_total",
    "Recovery directives applied by the lifecycle engine",
    labelnames=("action",),
)
_SESSION_OUTCOMES = _tm.counter(
    "pds2_lifecycle_sessions_total",
    "Workload sessions by terminal outcome",
    labelnames=("outcome",),
)
_ESCROW_REFUNDED = _tm.counter(
    "pds2_lifecycle_escrow_refunded_total",
    "Escrow returned to consumers by failing sessions",
)


# ---------------------------------------------------------------------------
# Workload kinds: the strategy objects parameterizing the engine
# ---------------------------------------------------------------------------


class WorkloadKind(ABC):
    """What differs between workload classes riding the same lifecycle.

    A kind is built with what the engine reads as values: the storage
    ``requirement`` providers are matched against, the measured enclave
    ``code`` and the ``spec_hash`` recorded on-chain at deployment.
    """

    workload_id: str
    requirement: Requirement
    code: EnclaveCode
    spec_hash: str
    reward_pool: int
    min_providers: int
    min_samples: int
    infra_share_bps: int
    required_confirmations: int

    #: Whether a settle vote the contract reverts fails the phase.
    votes_required = True

    @abstractmethod
    def run_kwargs(self, market: "Marketplace") -> dict:
        """Keyword arguments for the enclave entry point."""

    @abstractmethod
    def combine(self, session: "WorkloadSession", outputs: list[dict],
                ) -> tuple[np.ndarray, dict[str, int], dict]:
        """All-reduce enclave outputs.

        Returns ``(result_vector, weights_bps, extra)`` where the vector is
        what executors hash and vote on, the weights are the provider payout
        shares in basis points, and ``extra`` carries kind-specific fields
        (achieved epsilon, the combined statistic, sample counts).
        """

    def votes(self, ctx: "SessionContext"
              ) -> list[tuple[ExecutorActor, str, dict[str, int]]]:
        """The settle votes ``(executor, result_hash, weights_bps)``: the
        first ``required_confirmations`` active executors vote the honest
        pair."""
        return [(executor, ctx.result_hash, ctx.weights_bps)
                for executor in
                ctx.active_executors[:self.required_confirmations]]

    def submission_rng_label(self, provider: ProviderActor) -> str:
        """Derivation label of the rng the provider seals its data with."""
        return f"submit-{provider.name}"

    def contract_args(self) -> dict:
        """Deployment arguments of the on-chain workload contract."""
        return {
            "spec_hash": self.spec_hash,
            "code_measurement": self.code.measurement.hex(),
            "min_providers": self.min_providers,
            "min_samples": self.min_samples,
            "infra_share_bps": self.infra_share_bps,
            "required_confirmations": self.required_confirmations,
        }


def aggregate_training_outputs(outputs: list[dict],
                               ) -> tuple[np.ndarray, dict[str, float],
                                          Optional[float]]:
    """Decentralized aggregation of ML enclave outputs.

    Parameters are averaged weighted by trained sample counts (the
    deterministic fixed point the executors' peer-to-peer averaging
    converges to); raw payout weights are each provider's share of its
    executor's certified samples, scaled by that executor's data share.
    Returns ``(final_params, raw_weights, achieved_epsilon)``; the raw
    weights are normalized to basis points by the caller.
    """
    if not outputs:
        raise AggregationFailure("no enclave outputs to aggregate")
    weights = np.array([out["trained_samples"] for out in outputs],
                       dtype=float)
    stacked = np.stack([
        np.asarray(out["params"], dtype=float) for out in outputs
    ])
    final_params = (weights / weights.sum()) @ stacked

    raw: dict[str, float] = {}
    total_samples = float(sum(out["trained_samples"] for out in outputs))
    for out in outputs:
        executor_share = out["trained_samples"] / total_samples
        executor_total = float(sum(out["sample_counts"].values()))
        for provider, count in out["sample_counts"].items():
            raw[provider] = (raw.get(provider, 0.0)
                             + (count / executor_total) * executor_share)
    epsilons = [out.get("achieved_epsilon") for out in outputs]
    known = [e for e in epsilons if e is not None]
    achieved = max(known) if known else None
    return final_params, raw, achieved


class MLTrainingKind(WorkloadKind):
    """The paper's primary workload class: decentralized model training."""

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self.workload_id = spec.workload_id
        self.reward_pool = spec.reward_pool
        self.min_providers = spec.min_providers
        self.min_samples = spec.min_samples
        self.infra_share_bps = spec.infra_share_bps
        self.required_confirmations = spec.required_confirmations
        self.requirement = spec.requirement
        self.code = ExecutorActor.code_for(spec)
        self.spec_hash = spec.spec_hash

    def run_kwargs(self, market: "Marketplace") -> dict:
        return {"spec_dict": self.spec.to_dict(),
                "training_seed": market.seed}

    def combine(self, session: "WorkloadSession", outputs: list[dict],
                ) -> tuple[np.ndarray, dict[str, int], dict]:
        final_params, raw, achieved = aggregate_training_outputs(outputs)
        return final_params, normalize_weights_bps(raw), {
            "achieved_epsilon": achieved,
        }


#: Executors' cut of an aggregate workload's reward pool (basis points).
AGGREGATE_INFRA_SHARE_BPS = 1000


class AggregateWorkloadKind(WorkloadKind):
    """The other workload class: privacy-preserving statistical aggregates."""

    def __init__(self, workload_id: str, requirement: Requirement,
                 agg_spec: AggregateSpec, reward_pool: int,
                 min_providers: int, min_samples: int,
                 required_confirmations: int):
        self.workload_id = workload_id
        self.requirement = requirement
        self.agg_spec = agg_spec
        self.spec_dict = agg_spec.to_dict()
        self.reward_pool = reward_pool
        self.min_providers = min_providers
        self.min_samples = min_samples
        self.infra_share_bps = AGGREGATE_INFRA_SHARE_BPS
        self.required_confirmations = required_confirmations
        self.spec_hash = hash_object(self.spec_dict).hex()
        self.code = EnclaveCode(
            name=f"pds2-aggregate-{workload_id}",
            version=self.spec_hash,
            entry_point=aggregate_enclave_entry_point,
        )

    def submission_rng_label(self, provider: ProviderActor) -> str:
        return f"agg-{self.workload_id}-{provider.name}"

    def run_kwargs(self, market: "Marketplace") -> dict:
        return {"agg_spec": self.spec_dict, "noise_seed": market.seed}

    def combine(self, session: "WorkloadSession", outputs: list[dict],
                ) -> tuple[np.ndarray, dict[str, int], dict]:
        sample_counts: dict[str, float] = {}
        for output in outputs:
            for provider, count in output["sample_counts"].items():
                sample_counts[provider] = (
                    sample_counts.get(provider, 0) + count
                )
        combined = combine_aggregate_outputs(self.agg_spec.kind, outputs)
        vector = np.atleast_1d(np.asarray(combined, dtype=float))
        return vector, normalize_weights_bps(sample_counts), {
            "combined": combined,
            "sample_counts": sample_counts,
        }


# ---------------------------------------------------------------------------
# Session context and the session itself
# ---------------------------------------------------------------------------


@dataclass
class SessionContext:
    """Mutable state a session accumulates as it moves through the phases."""

    executors: list[ExecutorActor] = field(default_factory=list)
    workload_address: str = ""
    participants: list[ProviderActor] = field(default_factory=list)
    assignments: dict[str, list[ProviderActor]] = field(default_factory=dict)
    active_executors: list[ExecutorActor] = field(default_factory=list)
    outputs: list[dict] = field(default_factory=list)
    result_vector: np.ndarray = field(
        default_factory=lambda: np.zeros(0)
    )
    weights_bps: dict[str, int] = field(default_factory=dict)
    result_hash: str = ""
    extra: dict = field(default_factory=dict)
    final_state: str = ""
    payouts: dict[str, int] = field(default_factory=dict)
    audit: Optional[AuditReport] = None

    # -- recovery bookkeeping (all empty/False on a fault-free run) --------
    #: Executor addresses whose on-chain registration already succeeded
    #: (re-entered phases skip them instead of reverting on-chain).
    registered: set[str] = field(default_factory=set)
    #: Provider addresses whose data reached a live executor's enclave.
    submitted: set[str] = field(default_factory=set)
    #: Provider addresses whose participation certificate is on-chain —
    #: tracked separately from ``submitted`` because re-submitting a fresh
    #: certificate for the same provider would double-count its samples.
    certified: set[str] = field(default_factory=set)
    #: Executor addresses whose enclave already ran.
    executed: set[str] = field(default_factory=set)
    #: Executor addresses whose settle vote is already on-chain.
    voted: set[str] = field(default_factory=set)
    #: Executors removed from this session after crashing (addresses).
    blacklist: list[str] = field(default_factory=list)
    #: Providers dropped after exhausting their retry budget (addresses).
    dropped_providers: set[str] = field(default_factory=set)
    #: True once the session lost capacity and continued on a partial
    #: quorum (payouts reweighted over the surviving contributors).
    degraded: bool = False
    #: Per-phase retry counts for the *current* entry (reset on success).
    retries: dict[str, int] = field(default_factory=dict)
    #: Every recovery directive applied, in order.
    recovery_log: list[dict] = field(default_factory=list)
    #: Escrow returned to the consumer by a failing session.
    refunded: int = 0


@dataclass
class RecoveryDirective:
    """What :func:`repro.core.resilience.decide` tells the engine to do
    about one failure.

    ``action`` is one of ``retry`` / ``rematch`` / ``degrade`` /
    ``drop_provider``; ``target`` is the phase the session re-enters (a
    declared edge in :data:`TRANSITIONS`).
    """

    action: str
    target: str
    delay_s: float = 0.0
    dead_executor: str = ""
    provider: str = ""
    reason: str = ""


class WorkloadSession:
    """One workload's trip through the lifecycle state machine."""

    def __init__(self, market: "Marketplace", consumer: ConsumerActor,
                 kind: WorkloadKind,
                 recover: bool = False,
                 injector: Optional["FaultInjector"] = None):
        self.market = market
        self.consumer = consumer
        self.kind = kind
        self.session_id = market.next_session_id(kind.workload_id)
        self.state = STATE_CREATED
        #: Whether a failing phase consults
        #: :func:`repro.core.resilience.decide` (False fails fast).
        self.recover = recover
        #: Fault injector whose ``fire(session, point, **info)`` runs at
        #: every named :meth:`fault_point` (None disables injection).
        self.injector = injector
        #: The phase the engine (re-)enters next — where a paused session
        #: continues; on a recovery edge it is ``state`` or an earlier phase.
        self.next_phase = PHASE_DEPLOY
        #: Running count of phase executions (recovery re-entry runs a
        #: phase more than once); stamped on every phase span so a trace
        #: shows the re-entry ordinal without diffing span names.
        self._phase_entries = 0
        #: ``(tx_hash, sender, method)`` of every transaction sent and not
        #: yet read back; :meth:`Marketplace.seam` drains it.
        self.awaited: list[tuple[bytes, str, str]] = []
        self.trail: list[LifecycleEvent] = []
        self.ctx = SessionContext(executors=list(market.executors))
        #: The error that failed the session (None unless it failed).
        self.failure: Optional[LifecycleError] = None
        #: Gas of this session's own receipts (the seam adds them) and the
        #: blocks mined while it awaited (the driver counts them).
        self.gas_used = 0
        self.blocks_mined = 0
        #: The span stack and ambient context :meth:`Marketplace.drive`
        #: installs on every resume, rooted where the session was built.
        self.spans, self.span_context = market.tracer.branch(
            session_id=self.session_id)

    # -- observability ------------------------------------------------------

    @property
    def outcome(self) -> str:
        """``settled``, ``settled_degraded`` or ``failed`` (also while the
        session has not completed)."""
        if self.state != TERMINAL_COMPLETE:
            return "failed"
        return "settled_degraded" if self.ctx.degraded else "settled"

    def emit(self, name: str, *, actor: str = "",
             **data: Any) -> LifecycleEvent:
        """Publish one event attributed to this session's current phase
        (chain events, which carry gas and a height, are the market's)."""
        return self.market.publish_event(name, session=self, actor=actor,
                                         data=data)

    def record(self) -> dict:
        """This session's seed-determined progress, in any state.

        The one projection of a session: what :meth:`digest` is taken
        over, and on a failed session where it died (``next_phase`` keeps
        the phase that failed, ``state`` reads ``failed``).  It is coherent
        at *phase boundaries* — where :meth:`steps` yields the next phase —
        and excludes everything wall-clock-bearing (the event trail
        appears as its gas and block totals), so two processes reaching
        the same boundary at the same seed hold equal records.  Nothing
        reads it back: a paused session continues on its live generator and
        a crashed one is replayed from its seed (the supervisor compares
        digests at each boundary).
        """
        ctx = self.ctx
        record = {
            "format": CHECKPOINT_FORMAT,
            "session_id": self.session_id,
            "workload_id": self.kind.workload_id,
            "spec_hash": self.kind.spec_hash,
            # The phase last completed (or failing, on a recovery edge) and
            # the one (re-)entered next.
            "state": self.state,
            "next_phase": self.next_phase,
            "consumer": self.consumer.address,
            "workload_address": ctx.workload_address,
            "participants": [p.address for p in ctx.participants],
            "executors": [e.address for e in ctx.executors],
            "active_executors": [e.address for e in ctx.active_executors],
            "assignments": {
                executor: [p.address for p in providers]
                for executor, providers in ctx.assignments.items()
            },
            "outputs": list(ctx.outputs),
            "result_vector": np.asarray(ctx.result_vector, dtype=float),
            "weights_bps": dict(ctx.weights_bps),
            "result_hash": ctx.result_hash,
            "extra": dict(ctx.extra),
            "final_state": ctx.final_state,
            "payouts": dict(ctx.payouts),
            # Phase bookkeeping, sorted for canonical bytes.
            "registered": sorted(ctx.registered),
            "submitted": sorted(ctx.submitted),
            "certified": sorted(ctx.certified),
            "executed": sorted(ctx.executed),
            "voted": sorted(ctx.voted),
            "blacklist": list(ctx.blacklist),
            "dropped_providers": sorted(ctx.dropped_providers),
            "degraded": ctx.degraded,
            "retries": dict(ctx.retries),
            "recovery_log": [dict(entry) for entry in ctx.recovery_log],
            "refunded": ctx.refunded,
            "gas_used": self.gas_used,
            "blocks_mined": self.blocks_mined,
            "sim_clock": self.market.clock,
        }
        if self.injector is not None:  # absent, not null, when unarmed
            record["injector"] = self.injector.state_dict()
        return record

    def digest(self) -> str:
        """SHA-256 over the canonical encoding of :meth:`record`."""
        return sha256(canonical_json_bytes(self.record())).hexdigest()

    def fault_point(self, point: str, **info: Any) -> None:
        """Named injection point; a no-op unless an injector is armed."""
        if self.injector is not None:
            self.injector.fire(self, point, **info)

    # -- the state machine --------------------------------------------------

    def advance(self, next_state: str) -> None:
        """Move to ``next_state``, enforcing the transition table."""
        allowed = TRANSITIONS[self.state]
        if next_state not in allowed:
            raise TransitionError(
                f"illegal transition {self.state!r} -> {next_state!r} "
                f"(allowed: {allowed})")
        self.state = next_state

    def run(self) -> "WorkloadSession":
        """Drive :meth:`steps` to the end; returns this session, settled or
        failed (``self.failure``).  Raises only ``TransitionError``."""
        for _ in self.market.drive(self.steps(), self):
            pass
        return self

    def steps(self) -> Generator[str, None, None]:
        """The session as a generator, run by :meth:`Marketplace.drive`:
        yields :data:`AWAIT` where it needs a block and the next phase at
        each boundary (after every completed phase and applied recovery
        directive).  Left at a boundary, the session is paused.

        The whole run is one ``lifecycle.session`` span; each phase nests a
        ``lifecycle.phase.<name>`` child under it (and chain mining,
        enclave runs etc. nest further down), so a trace renders as a
        root-to-leaf time decomposition of the Fig. 2 sequence.

        With ``recover=True``, a failing phase may re-enter an
        earlier phase (or itself) instead of failing the session; the loop
        below follows whatever re-entry target :meth:`_run_phase` returns.
        """
        if self.state != STATE_CREATED:
            raise TransitionError(f"session is {self.state}; nothing to run")
        with self.market.tracer.span(
            "lifecycle.session", session_id=self.session_id,
            workload_id=self.kind.workload_id,
            kind=type(self.kind).__name__,
        ) as root:
            self.emit("session.started", workload_id=self.kind.workload_id,
                      kind=type(self.kind).__name__)
            while self.next_phase != TERMINAL_COMPLETE:
                index = PHASE_INDEX[self.next_phase]
                target = yield from self._run_phase(LIFECYCLE_PHASES[index])
                if target == TERMINAL_FAILED:
                    root.fail(self.failure)
                    return
                if target is None:  # no recovery edge: straight on
                    target = (LIFECYCLE_PHASES[index + 1].name
                              if index + 1 < len(LIFECYCLE_PHASES)
                              else TERMINAL_COMPLETE)
                self.next_phase = target
                if target != TERMINAL_COMPLETE:
                    yield target
            self.advance(TERMINAL_COMPLETE)
            self._release_enclaves(self.ctx.executors)
            root.set_attribute("gas_used", self.gas_used)
            root.set_attribute("blocks_mined", self.blocks_mined)
            root.set_attribute("degraded", self.ctx.degraded)
            _SESSION_OUTCOMES.labels(outcome=self.outcome).inc()
            self.emit("session.completed", gas_used=self.gas_used,
                      blocks_mined=self.blocks_mined,
                      degraded=self.ctx.degraded,
                      recoveries=len(self.ctx.recovery_log))

    def _run_phase(self, phase: "LifecyclePhase"
                   ) -> Generator[str, None, Optional[str]]:
        """Run one phase; None means proceed, a name means re-enter there
        (``failed``: the session failed)."""
        self.advance(phase.name)
        gas_before = self.gas_used
        self.emit("phase.started")
        self._phase_entries += 1
        with self.market.tracer.span(
            f"lifecycle.phase.{phase.name}", session_id=self.session_id,
            entry=self._phase_entries,
        ) as span:
            try:
                steps = phase.step(self)
                if isgenerator(steps):
                    yield from steps
            except LifecycleError as err:
                return (yield from self._recover_or_fail(phase, err, span))
            except PDS2Error as err:
                failure = phase.failure_class(str(err))
                failure.__cause__ = err
                return (yield from self._recover_or_fail(phase, failure, span))
            span.set_attribute("gas", self.gas_used - gas_before)
        self.ctx.retries.pop(phase.name, None)
        self.emit("phase.completed", gas_used=self.gas_used - gas_before)
        return None

    def _recover_or_fail(self, phase: "LifecyclePhase",
                         error: LifecycleError, span: Any
                         ) -> Generator[str, None, str]:
        """Consult :func:`~repro.core.resilience.decide` when recovery is
        on; returns the directive's re-entry target, or ``failed``."""
        from repro.core.resilience import decide

        directive = decide(self, phase, error) if self.recover else None
        if directive is None:
            yield from self._fail(phase, error)
            span.fail(error)
            return TERMINAL_FAILED
        self._apply_recovery(phase, directive, error)
        span.set_attribute("recovered", directive.action)
        return directive.target

    def _apply_recovery(self, phase: "LifecyclePhase",
                        directive: RecoveryDirective,
                        error: LifecycleError) -> None:
        """Mutate session state so the re-entered phase can succeed."""
        ctx = self.ctx
        with self.market.tracer.span(
            "lifecycle.recovery", session_id=self.session_id,
            action=directive.action, phase=phase.name,
            target=directive.target,
        ):
            if directive.action == "retry":
                ctx.retries[phase.name] = ctx.retries.get(phase.name, 0) + 1
                if directive.delay_s > 0:
                    self.market.advance_clock(directive.delay_s)
            elif directive.action == "rematch":
                self._remove_executor(directive.dead_executor,
                                      orphan_resubmits=True)
            elif directive.action == "degrade":
                self._remove_executor(directive.dead_executor,
                                      orphan_resubmits=False)
                ctx.degraded = True
            elif directive.action == "drop_provider":
                ctx.dropped_providers.add(directive.provider)
                ctx.participants = [
                    p for p in ctx.participants
                    if p.address != directive.provider
                ]
                ctx.degraded = True
            else:
                raise MarketplaceError(
                    f"unknown recovery action {directive.action!r}"
                )
        record = {
            "action": directive.action,
            "phase": phase.name,
            "target": directive.target,
            "error": type(error).__name__,
            "dead_executor": directive.dead_executor,
            "provider": directive.provider,
            "delay_s": directive.delay_s,
            "reason": directive.reason,
        }
        ctx.recovery_log.append(record)
        _RECOVERY_ACTIONS.labels(action=directive.action).inc()
        self.emit(f"recovery.{directive.action}", target=directive.target,
                  error=type(error).__name__,
                  dead_executor=directive.dead_executor,
                  provider=directive.provider, delay_s=directive.delay_s,
                  reason=directive.reason)

    def _remove_executor(self, address: str, *,
                         orphan_resubmits: bool) -> None:
        """Blacklist one executor and detach it from the session.

        ``orphan_resubmits`` controls what happens to providers whose data
        only that executor held: before execution starts their submissions
        are re-queued onto the survivors (re-match); after, the data is
        gone with the enclave and the run degrades to the executors that
        still hold data.
        """
        ctx = self.ctx
        if address not in ctx.blacklist:
            ctx.blacklist.append(address)
        self._release_enclaves(
            [e for e in ctx.executors if e.address == address])
        ctx.executors = [e for e in ctx.executors if e.address != address]
        ctx.active_executors = [
            e for e in ctx.active_executors if e.address != address
        ]
        orphans = ctx.assignments.pop(address, [])
        if orphan_resubmits:
            for provider in orphans:
                ctx.submitted.discard(provider.address)

    def _fail(self, phase: "LifecyclePhase",
              error: LifecycleError) -> Generator[str, None, None]:
        self.failure = error
        self.emit("phase.failed", error=type(error).__name__,
                  message=str(error))
        yield from self._release_escrow()
        self.advance(TERMINAL_FAILED)
        _SESSION_OUTCOMES.labels(outcome=self.outcome).inc()
        self._release_enclaves(self.ctx.executors)
        self.emit("session.failed", phase=phase.name)

    def _release_enclaves(self, executors: list[ExecutorActor]) -> None:
        """Terminate and forget this workload's enclaves on ``executors``:
        decrypted provider rows must not outlive the session they were
        submitted to (a session left at a boundary keeps its enclaves)."""
        for executor in executors:
            enclave = executor.enclaves.pop(self.kind.workload_id, None)
            if enclave is not None:
                enclave.terminate()

    def _release_escrow(self) -> Generator[str, None, None]:
        """Settle-or-refund: a dying session must not strand the escrow.

        If the workload contract was deployed and is still unsettled, the
        consumer aborts it, refunding the escrowed reward pool.  Refund
        failure is recorded but never masks the original error.
        """
        ctx = self.ctx
        if not ctx.workload_address:
            return
        try:
            state = self.read_state()
            if state not in (STATE_OPEN, STATE_EXECUTING):
                return
            escrow = int(self.consumer.wallet.view(
                ctx.workload_address, "escrow"
            ))
            # The abort's block also mines the failed phase's sends: the
            # seam reads them, but only the abort must succeed (cancelled).
            self.send(self.consumer.wallet, "abort")
            yield from self.market.seam(self, self.awaited,
                                        required=self.awaited[-1:],
                                        drain=True)
            ctx.refunded = escrow
            _ESCROW_REFUNDED.inc(escrow)
            self.emit("session.refunded", actor=self.consumer.address,
                      refunded=escrow)
        except PDS2Error as exc:
            self.emit("session.refund_failed", error=type(exc).__name__,
                      message=str(exc))

    # -- helpers the phases share -------------------------------------------

    def send(self, wallet: "Wallet", method: str, **args: Any) -> None:
        """Queue one call to the workload contract and await its receipt."""
        self.market.send(self.awaited, wallet, self.ctx.workload_address,
                         method, **args)

    def block(self, *, drain: bool) -> Generator[str, None, list["Receipt"]]:
        """Await one block (also when nothing was sent) and return the
        receipts of this session's sends, every one of which must succeed;
        one deferred by the block gas limit waits for a later block unless
        the phase ``drain``s (see :meth:`Marketplace.seam`)."""
        return self.market.seam(self, self.awaited, required=self.awaited,
                                drain=drain)

    def read_state(self) -> str:
        """The workload contract's current lifecycle state (free view)."""
        return self.consumer.wallet.view(self.ctx.workload_address, "state")


# ---------------------------------------------------------------------------
# The phases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LifecyclePhase:
    """One individually-testable lifecycle step.

    ``step(session)`` is the phase; a failure it raises is re-raised as
    ``failure_class`` unless it is a lifecycle error already.  An off-chain
    step is a plain function.  An on-chain step is a generator: it sends
    (:meth:`WorkloadSession.send`) and does ``receipts = yield from
    session.block(drain=...)`` where it needs them — exactly one block per
    entry, also when it sent nothing.  A step never mines.
    """

    name: str
    failure_class: type[LifecycleError]
    step: Callable[["WorkloadSession"], Any]


def deploy(session: WorkloadSession) -> Generator[str, None, None]:
    """Fig. 2 step 1: validate the run and deploy the escrowed contract."""
    kind = session.kind
    executors = session.ctx.executors
    if not executors:
        raise DeployFailure("no executors available")
    if kind.required_confirmations > len(executors):
        raise DeployFailure(
            "spec requires more confirmations than executors exist")
    session.fault_point("deploy.chain_tx")
    wallet = session.consumer.wallet
    tx_hash = wallet.deploy("workload", value=kind.reward_pool,
                            **kind.contract_args())
    session.awaited.append((tx_hash, wallet.address, "deploy"))
    # Drained: the next phases need the contract's address.
    receipts = yield from session.block(drain=True)
    session.ctx.workload_address = receipts[-1].contract_address
    session.emit("contract.deployed",
                 actor=session.consumer.address,
                 workload_address=session.ctx.workload_address,
                 reward_pool=kind.reward_pool)


def match(session: WorkloadSession) -> None:
    """Fig. 2 step 2: storage-subsystem matching + provider consent.

    A provider joins when its storage subsystem holds a record the
    requirement matches, its participation policy accepts this kind, and
    recovery has not dropped it — for every kind of workload.
    """
    market = session.market
    kind = session.kind
    participants = [
        provider for provider in market.providers
        if market.catalog.match_for_owner(kind.requirement, provider.address)
        and provider.wants_to_participate(kind, market.ontology)
        and provider.address not in session.ctx.dropped_providers
    ]
    if len(participants) < kind.min_providers:
        raise MatchFailure(
            f"only {len(participants)} willing providers; "
            f"spec requires {kind.min_providers}")
    session.ctx.participants = participants
    for provider in participants:
        session.emit("match.provider_joined", actor=provider.address)
    session.emit("match.completed", providers=len(participants))


def register_executors(session: WorkloadSession
                       ) -> Generator[str, None, None]:
    """Fig. 2 step 3: executors launch enclaves and register on-chain."""
    kind = session.kind
    ctx = session.ctx
    for executor in list(ctx.executors):
        if executor.address in ctx.registered:
            continue  # recovery re-entry: already registered on-chain
        session.fault_point("register.executor", executor=executor)
        executor.launch_enclave_for(kind.workload_id, kind.code)
        session.send(executor.wallet, "register_executor",
                     claimed_measurement=kind.code.measurement.hex())
        ctx.registered.add(executor.address)
        session.emit("executor.registered", actor=executor.address)
    yield from session.block(drain=False)


def attest_and_submit(session: WorkloadSession
                      ) -> Generator[str, None, None]:
    """Fig. 2 step 4: providers attest executors, send data + certificates."""
    market = session.market
    kind = session.kind
    ctx = session.ctx
    onchain_measurement = session.consumer.wallet.view(
        ctx.workload_address, "code_measurement"
    )
    expected = bytes.fromhex(onchain_measurement)
    for executor in ctx.executors:
        ctx.assignments.setdefault(executor.address, [])
    for provider in ctx.participants:
        if provider.address in ctx.submitted:
            continue  # recovery re-entry: data already with a live executor
        # Round-robin over the (surviving) executors; on a fault-free
        # run ``len(ctx.submitted)`` is the participant index.
        executor = ctx.executors[len(ctx.submitted) % len(ctx.executors)]
        session.fault_point("submit.executor", executor=executor)
        session.fault_point("submit.provider", provider=provider,
                            executor=executor)
        quote = executor.quote_for_workload(kind.workload_id, kind.code)
        enclave_key = market.attestation.verify(
            quote, expected_measurement=expected
        )
        blob, certificate = provider.prepare_submission_for(
            kind.workload_id, executor.address, enclave_key,
            issued_at=market._tick(),
            rng=derive_rng(market.seed,
                           kind.submission_rng_label(provider)),
        )
        certificate.verify()
        executor.accept_data_for(
            kind.workload_id, kind.code, provider.address, blob,
            provider.channel_key.public_key(),
        )
        if provider.address not in ctx.certified:
            # A provider re-matched onto a new executor after a crash
            # already has a certificate on-chain; submitting a second
            # one would double-count its samples in the contract.
            session.send(
                executor.wallet, "submit_participation",
                provider=provider.address,
                certificate_hash=certificate.certificate_hash.hex(),
                data_root=certificate.data_root.hex(),
                item_count=certificate.item_count,
            )
            ctx.certified.add(provider.address)
        ctx.assignments[executor.address].append(provider)
        ctx.submitted.add(provider.address)
        session.emit("storage.data_submitted", actor=provider.address,
                     executor=executor.address,
                     item_count=certificate.item_count)
    yield from session.block(drain=False)


def start_execution(session: WorkloadSession) -> Generator[str, None, None]:
    """Fig. 2 step 5: gate execution on the consumer's preconditions."""
    session.fault_point("start.chain_tx")
    session.send(session.consumer.wallet, "start_execution")
    session.emit("execution.start_requested",
                 actor=session.consumer.address)
    # Drained: no enclave runs before the gate's receipt is read.
    yield from session.block(drain=True)


def execute(session: WorkloadSession) -> None:
    """Fig. 2 step 6a: every enclave that received data executes."""
    kind = session.kind
    ctx = session.ctx
    ctx.active_executors = [
        executor for executor in ctx.executors
        if ctx.assignments.get(executor.address)
    ]
    run_kwargs = kind.run_kwargs(session.market)
    for executor in list(ctx.active_executors):
        if executor.address in ctx.executed:
            continue  # recovery re-entry: this enclave already ran
        session.fault_point("execute.executor", executor=executor)
        output = executor.execute_for(kind.workload_id, kind.code,
                                      **run_kwargs)
        ctx.outputs.append(output)
        ctx.executed.add(executor.address)
        session.emit("enclave.executed", actor=executor.address,
                     providers=len(ctx.assignments[executor.address]))


def aggregate(session: WorkloadSession) -> None:
    """Fig. 2 step 6b: all-reduce outputs and agree on payout weights."""
    ctx = session.ctx
    vector, weights_bps, extra = session.kind.combine(session, ctx.outputs)
    ctx.result_vector = vector
    ctx.weights_bps = weights_bps
    ctx.extra = extra
    ctx.result_hash = result_hash_of(vector, weights_bps)
    session.emit("aggregate.completed", result_hash=ctx.result_hash,
                 outputs=len(ctx.outputs), degraded=ctx.degraded)


def settle(session: WorkloadSession) -> Generator[str, None, None]:
    """Fig. 2 step 6c/7: quorum votes, contract payout, reward accounting.

    The kind says who votes what (:meth:`WorkloadKind.votes`); a quorum
    that did not form fails the session, which refunds the escrow.
    """
    kind = session.kind
    ctx = session.ctx
    for executor, result_hash, weights_bps in kind.votes(ctx):
        if executor.address in ctx.voted:
            continue  # recovery re-entry: vote already on-chain
        session.fault_point("settle.chain_tx", executor=executor)
        session.send(executor.wallet, "submit_result",
                     result_hash=result_hash,
                     provider_weights_bps=weights_bps)
        ctx.voted.add(executor.address)
        session.emit("settle.vote_cast", actor=executor.address,
                     result_hash=result_hash)
    # A vote the kind does not require (one after quorum) may revert: the
    # seam reports it as ``chain.tx_reverted`` instead of raising.
    yield from session.market.seam(
        session, session.awaited,
        required=session.awaited if kind.votes_required else (),
        drain=False)
    ctx.final_state = session.read_state()
    if ctx.final_state != STATE_COMPLETE:
        session.emit("settle.incomplete", state=ctx.final_state)
        raise SettlementFailure(
            f"workload did not complete (state={ctx.final_state!r})")
    # Sum the contract's RewardPaid events per recipient.
    ctx.payouts = {}
    for _, log in session.market.chain.events(
            name="RewardPaid", address=ctx.workload_address):
        recipient = log.data["recipient"]
        ctx.payouts[recipient] = (ctx.payouts.get(recipient, 0)
                                  + int(log.data["amount"]))
    for provider in ctx.participants:
        provider.rewards_received += ctx.payouts.get(provider.address, 0)
    session.emit("settle.payouts_recorded",
                 total_paid=sum(ctx.payouts.values()),
                 recipients=len(ctx.payouts))


def audit(session: WorkloadSession) -> None:
    """Fig. 2 step 8: re-derive the history and cross-check the event trail."""
    report = audit_workload(
        session.market.chain, session.ctx.workload_address,
        auditor=session.consumer.address,
    )
    # The off-chain trail must cover the on-chain history: every event
    # the contract emitted appears in this session's event log.
    report.violations.extend(trail_covers_chain(
        session.market.chain, session.ctx.workload_address,
        session.trail,
    ))
    session.ctx.audit = report
    session.emit("audit.completed", clean=report.clean,
                 violations=len(report.violations))


#: The canonical phase order the engine drives.
LIFECYCLE_PHASES: tuple[LifecyclePhase, ...] = (
    LifecyclePhase(PHASE_DEPLOY, DeployFailure, deploy),
    LifecyclePhase(PHASE_MATCH, MatchFailure, match),
    LifecyclePhase(PHASE_REGISTER, RegistrationFailure, register_executors),
    LifecyclePhase(PHASE_SUBMIT, SubmissionFailure, attest_and_submit),
    LifecyclePhase(PHASE_START, StartFailure, start_execution),
    LifecyclePhase(PHASE_EXECUTE, ExecutionFailure, execute),
    LifecyclePhase(PHASE_AGGREGATE, AggregationFailure, aggregate),
    LifecyclePhase(PHASE_SETTLE, SettlementFailure, settle),
    LifecyclePhase(PHASE_AUDIT, AuditFailure, audit),
)

#: Phase name -> position in the canonical order (recovery re-entry).
PHASE_INDEX: dict[str, int] = {
    phase.name: index for index, phase in enumerate(LIFECYCLE_PHASES)
}

_ORDER = (STATE_CREATED, *PHASE_INDEX, TERMINAL_COMPLETE)

#: The full transition table, read off the phase order: each state leads to
#: the next one, to ``failed`` and along its recovery edges; terminal states
#: have no outgoing transitions (tests assert this closure property).
TRANSITIONS: dict[str, tuple[str, ...]] = {
    **{state: (following, TERMINAL_FAILED,
               *RECOVERY_TRANSITIONS.get(state, ()))
       for state, following in zip(_ORDER, _ORDER[1:])},
    TERMINAL_COMPLETE: (),
    TERMINAL_FAILED: (),
}
