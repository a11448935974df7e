"""The workload lifecycle engine: paper Fig. 2 as an explicit state machine.

One :class:`WorkloadSession` drives a workload through nine typed phases —

    deploy → match → register_executors → attest_and_submit
           → start_execution → execute → aggregate → settle → audit

— with a declared transition table (:data:`TRANSITIONS`), per-phase failure
classes (:class:`repro.errors.LifecycleError` subclasses carrying a session
snapshot), and a structured event trail published on the marketplace
:class:`~repro.core.events.EventBus`.

What *kind* of workload runs is a strategy object (:class:`WorkloadKind`):
ML training (:class:`MLTrainingKind`) and statistical aggregates
(:class:`AggregateWorkloadKind`) differ only in the enclave entry point,
the way enclave outputs are combined, and the shape of the final result.
``Marketplace.run_workload`` and ``Marketplace.run_aggregate_workload``
are thin drivers over this one engine.

Phases are individually testable objects and none of them mines (see
:class:`LifecyclePhase`).  A phase's sending half can be *intercepted*
(replaced by a callable) — the adversary harness substitutes malicious
result votes for the honest ones this way, without reaching into
marketplace internals.

Failures need not be terminal.  A session built with ``recover=True``
consults :func:`repro.core.resilience.decide` whenever a phase raises: it
may direct a **retry** of the same phase (backoff on the sim
clock), a **re-match** onto the surviving executors (re-entering
``register_executors`` with the dead executor blacklisted), a quorum
**degrade** (proceed with the executors that still hold data), or a
provider **drop** — each a declared re-entry edge in :data:`TRANSITIONS`.
Without recovery the session fails; a failing session that already
escrowed funds aborts the workload contract so the consumer is refunded.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from hashlib import sha256
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

import numpy as np

from repro.core.actors import ConsumerActor, ExecutorActor, ProviderActor, result_hash_of
from repro.core.aggregates import (
    AggregateResult,
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
from repro.tee.enclave import EnclaveCode
from repro.telemetry import metrics as _tm
from repro.telemetry.profiler import profiled
from repro.utils.rng import derive_rng
from repro.utils.serialization import canonical_json_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.chain.blockchain import Wallet
    from repro.chain.transaction import Receipt
    from repro.core.marketplace import Marketplace


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

#: Recovery re-entry edges layered over the happy path.  Every phase may
#: retry itself (transient faults back off on the sim clock and run the
#: phase again); a crash discovered while the contract is still OPEN
#: re-enters ``register_executors`` (or ``match``, if the participant set
#: must be rebuilt) with the dead executor blacklisted; a crash during
#: ``execute`` re-enters the same phase over the surviving quorum.
RECOVERY_TRANSITIONS: dict[str, tuple[str, ...]] = {
    PHASE_DEPLOY: (PHASE_DEPLOY,),
    PHASE_MATCH: (PHASE_MATCH,),
    PHASE_REGISTER: (PHASE_REGISTER,),
    PHASE_SUBMIT: (PHASE_SUBMIT, PHASE_MATCH, PHASE_REGISTER),
    PHASE_START: (PHASE_START,),
    PHASE_EXECUTE: (PHASE_EXECUTE, PHASE_REGISTER),
    PHASE_AGGREGATE: (PHASE_AGGREGATE,),
    PHASE_SETTLE: (PHASE_SETTLE,),
    PHASE_AUDIT: (PHASE_AUDIT,),
}

#: The full transition table.  Every phase may fail; terminal states have no
#: outgoing transitions (tests assert this closure property).
TRANSITIONS: dict[str, tuple[str, ...]] = {
    STATE_CREATED: (PHASE_DEPLOY, TERMINAL_FAILED),
    PHASE_DEPLOY: (PHASE_MATCH, TERMINAL_FAILED,
                   *RECOVERY_TRANSITIONS[PHASE_DEPLOY]),
    PHASE_MATCH: (PHASE_REGISTER, TERMINAL_FAILED,
                  *RECOVERY_TRANSITIONS[PHASE_MATCH]),
    PHASE_REGISTER: (PHASE_SUBMIT, TERMINAL_FAILED,
                     *RECOVERY_TRANSITIONS[PHASE_REGISTER]),
    PHASE_SUBMIT: (PHASE_START, TERMINAL_FAILED,
                   *RECOVERY_TRANSITIONS[PHASE_SUBMIT]),
    PHASE_START: (PHASE_EXECUTE, TERMINAL_FAILED,
                  *RECOVERY_TRANSITIONS[PHASE_START]),
    PHASE_EXECUTE: (PHASE_AGGREGATE, TERMINAL_FAILED,
                    *RECOVERY_TRANSITIONS[PHASE_EXECUTE]),
    PHASE_AGGREGATE: (PHASE_SETTLE, TERMINAL_FAILED,
                      *RECOVERY_TRANSITIONS[PHASE_AGGREGATE]),
    PHASE_SETTLE: (PHASE_AUDIT, TERMINAL_FAILED,
                   *RECOVERY_TRANSITIONS[PHASE_SETTLE]),
    PHASE_AUDIT: (TERMINAL_COMPLETE, TERMINAL_FAILED,
                  *RECOVERY_TRANSITIONS[PHASE_AUDIT]),
    TERMINAL_COMPLETE: (),
    TERMINAL_FAILED: (),
}

TERMINAL_STATES = (TERMINAL_COMPLETE, TERMINAL_FAILED)

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
    """What differs between workload classes riding the same lifecycle."""

    workload_id: str
    reward_pool: int
    min_providers: int
    min_samples: int
    infra_share_bps: int
    required_confirmations: int

    @property
    @abstractmethod
    def code(self) -> EnclaveCode:
        """The measured enclave code unit for this workload."""

    @abstractmethod
    def spec_hash(self) -> str:
        """Canonical hash recorded on-chain at deployment."""

    @abstractmethod
    def match(self, market: "Marketplace") -> list[ProviderActor]:
        """Providers whose data and policy admit this workload."""

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

    @abstractmethod
    def build_result(self, session: "WorkloadSession") -> Any:
        """Shape the session context into this kind's public return value."""

    def submission_rng_label(self, provider: ProviderActor) -> str:
        """Derivation label for the provider's envelope-encryption rng."""
        return f"submit-{provider.name}"

    def contract_args(self) -> dict:
        """Deployment arguments of the on-chain workload contract."""
        return {
            "spec_hash": self.spec_hash(),
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
    converges to); raw payout weights come from certified sample counts or
    from enclave-computed Shapley fractions scaled by each executor's data
    share.  Returns ``(final_params, raw_weights, achieved_epsilon)``; the
    raw weights are normalized to basis points by the caller.
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
        if "shapley_fractions" in out:
            for provider, fraction in out["shapley_fractions"].items():
                raw[provider] = (raw.get(provider, 0.0)
                                 + fraction * executor_share)
        else:
            executor_total = float(sum(out["sample_counts"].values()))
            for provider, count in out["sample_counts"].items():
                raw[provider] = (raw.get(provider, 0.0)
                                 + (count / executor_total)
                                 * executor_share)
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
        self._code = ExecutorActor.code_for(spec)

    @property
    def code(self) -> EnclaveCode:
        return self._code

    def spec_hash(self) -> str:
        return self.spec.spec_hash

    def match(self, market: "Marketplace") -> list[ProviderActor]:
        return market.matching_providers(self.spec)

    def run_kwargs(self, market: "Marketplace") -> dict:
        return {"spec_dict": self.spec.to_dict(),
                "training_seed": market.seed}

    def combine(self, session: "WorkloadSession", outputs: list[dict],
                ) -> tuple[np.ndarray, dict[str, int], dict]:
        final_params, raw, achieved = aggregate_training_outputs(outputs)
        return final_params, normalize_weights_bps(raw), {
            "achieved_epsilon": achieved,
        }

    def build_result(self, session: "WorkloadSession") -> "Any":
        from repro.core.marketplace import WorkloadRunReport

        ctx = session.ctx
        consumer_score = None
        if session.consumer.validation is not None:
            consumer_score = session.consumer.evaluate_result(
                self.spec, ctx.result_vector
            )
        return WorkloadRunReport(
            workload_address=ctx.workload_address,
            spec=self.spec,
            participants=[p.address for p in ctx.participants],
            executors=[e.address for e in ctx.executors],
            active_executors=[e.address for e in ctx.active_executors],
            final_params=ctx.result_vector,
            result_hash=ctx.result_hash,
            consumer_score=consumer_score,
            payouts=dict(ctx.payouts),
            weights_bps=dict(ctx.weights_bps),
            gas_used=session.gas_used,
            blocks_mined=session.blocks_mined,
            achieved_epsilon=ctx.extra.get("achieved_epsilon"),
            audit=ctx.audit,
            session_id=session.session_id,
            degraded=ctx.degraded,
            recoveries=[dict(entry) for entry in ctx.recovery_log],
            blacklisted=list(ctx.blacklist),
        )


#: Executors' cut of an aggregate workload's reward pool (basis points).
AGGREGATE_INFRA_SHARE_BPS = 1000


class AggregateWorkloadKind(WorkloadKind):
    """The other workload class: privacy-preserving statistical aggregates."""

    def __init__(self, workload_id: str, requirement: Any,
                 agg_spec: AggregateSpec, reward_pool: int = 100_000,
                 min_providers: int = 1, min_samples: int = 1,
                 required_confirmations: int = 1):
        self.workload_id = workload_id
        self.requirement = requirement
        self.agg_spec = agg_spec
        self.spec_dict = agg_spec.to_dict()
        self.reward_pool = reward_pool
        self.min_providers = min_providers
        self.min_samples = min_samples
        self.infra_share_bps = AGGREGATE_INFRA_SHARE_BPS
        self.required_confirmations = required_confirmations
        self._code = EnclaveCode(
            name=f"pds2-aggregate-{workload_id}",
            version=hash_object(self.spec_dict).hex(),
            entry_point=aggregate_enclave_entry_point,
        )

    @property
    def code(self) -> EnclaveCode:
        return self._code

    def spec_hash(self) -> str:
        return hash_object(self.spec_dict).hex()

    def match(self, market: "Marketplace") -> list[ProviderActor]:
        return [
            provider for provider in market.providers
            if market.catalog.match_for_owner(self.requirement,
                                              provider.address)
        ]

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

    def build_result(self, session: "WorkloadSession"
                     ) -> tuple[AggregateResult, AuditReport, str]:
        ctx = session.ctx
        sample_counts = ctx.extra["sample_counts"]
        result = AggregateResult(
            statistic=ctx.extra["combined"],
            kind=self.agg_spec.kind,
            dp_epsilon=self.agg_spec.dp_epsilon,
            total_samples=int(sum(sample_counts.values())),
            sample_counts={k: int(v) for k, v in sample_counts.items()},
        )
        return result, ctx.audit, ctx.workload_address


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


#: An interceptor replaces one phase's ``run`` (see :class:`LifecyclePhase`).
#: It receives the session and the phase object it displaced.
PhaseInterceptor = Callable[["WorkloadSession", "LifecyclePhase"], None]


class WorkloadSession:
    """One workload's trip through the lifecycle state machine."""

    def __init__(self, market: "Marketplace", consumer: ConsumerActor,
                 kind: WorkloadKind,
                 interceptors: Optional[Mapping[str, PhaseInterceptor]] = None,
                 require_completion: bool = True,
                 audit: bool = True,
                 recover: bool = False,
                 injector: Optional[Any] = None,
                 on_phase_boundary: Optional[Callable[
                     ["WorkloadSession", str], None]] = None):
        self.market = market
        self.consumer = consumer
        self.kind = kind
        self.session_id = market.next_session_id(kind.workload_id)
        self.state = STATE_CREATED
        self.interceptors: dict[str, PhaseInterceptor] = dict(
            interceptors or {}
        )
        self.require_completion = require_completion
        self.audit_enabled = audit
        #: Whether a failing phase consults
        #: :func:`repro.core.resilience.decide` (False fails fast).
        self.recover = recover
        #: Fault injector whose ``fire(session, point, **info)`` runs at
        #: every named :meth:`fault_point` (None disables injection).
        self.injector = injector
        #: Called as ``hook(session, next_phase)`` after every completed
        #: phase and after every applied recovery directive — the points a
        #: checkpoint is coherent at.  The hook may raise
        #: :class:`~repro.errors.SessionPaused` to stop the session;
        #: calling :meth:`run` again continues it at :attr:`next_phase`.
        self.on_phase_boundary = on_phase_boundary
        #: The phase the engine (re-)enters next — where a paused session
        #: continues; on a recovery edge it is ``state`` or an earlier phase.
        self.next_phase = PHASE_DEPLOY
        #: Running count of phase executions (recovery re-entry runs a
        #: phase more than once); stamped on every phase span so a trace
        #: shows the re-entry ordinal without diffing span names.
        self._phase_entries = 0
        #: ``(tx_hash, sender, method)`` of every transaction sent and not
        #: yet read back; :meth:`Marketplace.mine_and_read` drains it.
        self.awaited: list[tuple[bytes, str, str]] = []
        self.trail: list[LifecycleEvent] = []
        self.ctx = SessionContext(executors=list(market.executors))

    # -- observability ------------------------------------------------------

    @property
    def gas_used(self) -> int:
        """Session gas, derived from the event trail's chain deltas."""
        return sum(event.gas_delta for event in self.trail)

    @property
    def blocks_mined(self) -> int:
        return sum(
            1 for event in self.trail if event.name == "chain.block_mined"
        )

    def emit(self, name: str, *, gas_delta: int = 0, block_height: int = -1,
             actor: str = "", **data: Any) -> LifecycleEvent:
        """Publish one event attributed to this session's current phase."""
        return self.market.publish_event(
            name, session=self, gas_delta=gas_delta,
            block_height=block_height, actor=actor, data=data,
        )

    def record(self) -> dict:
        """This session's seed-determined progress, in any state.

        The one projection of a session: what a failure carries as its
        ``snapshot`` and what :meth:`digest` is taken over.  It is coherent
        at *phase boundaries* — where :attr:`on_phase_boundary` fires —
        and excludes everything wall-clock-bearing (the event trail
        appears as its gas and block totals), so two processes reaching
        the same boundary at the same seed hold equal records.  Nothing
        reads it back: a paused session continues on the live object and a
        crashed one is replayed from its seed (:mod:`repro.control.supervisor`
        compares digests at each boundary).
        """
        ctx = self.ctx
        record = {
            "format": CHECKPOINT_FORMAT,
            "session_id": self.session_id,
            "workload_id": self.kind.workload_id,
            "spec_hash": self.kind.spec_hash(),
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
                f"(allowed: {allowed})",
                snapshot=self.record(),
            )
        self.state = next_state

    def run(self) -> Any:
        """Drive every phase in order; returns the kind-shaped result.

        The whole run is one ``lifecycle.session`` span; each phase nests a
        ``lifecycle.phase.<name>`` child under it (and chain mining,
        enclave runs etc. nest further down), so a trace renders as a
        root-to-leaf time decomposition of the Fig. 2 sequence.

        With ``recover=True``, a failing phase may re-enter an
        earlier phase (or itself) instead of failing the session; the loop
        below follows whatever re-entry target :meth:`_run_phase` returns.

        Re-entrant: a session stopped by :class:`~repro.errors.SessionPaused`
        continues at :attr:`next_phase` when ``run()`` is called again.
        """
        if self.state in TERMINAL_STATES:
            raise TransitionError(f"session is {self.state}; nothing to run",
                                  snapshot=self.record())
        with self.market.active_session(self):
            with self.market.tracer.span(
                "lifecycle.session", session_id=self.session_id,
                workload_id=self.kind.workload_id,
                kind=type(self.kind).__name__,
            ) as root:
                if self.state == STATE_CREATED:
                    self.emit("session.started",
                              workload_id=self.kind.workload_id,
                              kind=type(self.kind).__name__)
                else:  # paused: continue where it stopped
                    self.emit("session.resumed", phase=self.next_phase,
                              state=self.state)
                while self.next_phase != TERMINAL_COMPLETE:
                    index = PHASE_INDEX[self.next_phase]
                    target = self._run_phase(LIFECYCLE_PHASES[index])
                    if target is None:  # no recovery edge: straight on
                        target = (LIFECYCLE_PHASES[index + 1].name
                                  if index + 1 < len(LIFECYCLE_PHASES)
                                  else TERMINAL_COMPLETE)
                    self.next_phase = target
                    if (self.on_phase_boundary is not None
                            and target != TERMINAL_COMPLETE):
                        self.on_phase_boundary(self, target)
                self.advance(TERMINAL_COMPLETE)
                self._release_enclaves(self.ctx.executors)
                root.set_attribute("gas_used", self.gas_used)
                root.set_attribute("blocks_mined", self.blocks_mined)
                root.set_attribute("degraded", self.ctx.degraded)
                outcome = "degraded" if self.ctx.degraded else "complete"
                _SESSION_OUTCOMES.labels(outcome=outcome).inc()
                self.emit("session.completed", gas_used=self.gas_used,
                          blocks_mined=self.blocks_mined,
                          degraded=self.ctx.degraded,
                          recoveries=len(self.ctx.recovery_log))
        return self.kind.build_result(self)

    def _run_phase(self, phase: "LifecyclePhase") -> Optional[str]:
        """Run one phase; None means proceed, a name means re-enter there."""
        self.advance(phase.name)
        gas_before = self.market.chain.total_gas_used
        self.emit("phase.started")
        self._phase_entries += 1
        with self.market.tracer.span(
            f"lifecycle.phase.{phase.name}", session_id=self.session_id,
            entry=self._phase_entries,
        ) as span, profiled(f"phase.{phase.name}"):
            try:
                interceptor = self.interceptors.get(phase.name)
                if interceptor is not None:
                    interceptor(self, phase)
                else:
                    phase.run(self)
                if phase.on_chain:
                    # What an interceptor sent may revert (a vote after
                    # quorum): reported by the seam, not required.
                    phase.after_block(self, self.market.mine_and_read(
                        self.awaited, required=interceptor is None,
                        drain=phase.drain))
            except LifecycleError as err:
                if not err.snapshot:
                    err.snapshot = self.record()
                return self._recover_or_fail(phase, err, span)
            except PDS2Error as err:
                failure = phase.failure_class(str(err),
                                              snapshot=self.record())
                failure.__cause__ = err
                return self._recover_or_fail(phase, failure, span)
            span.set_attribute(
                "gas", self.market.chain.total_gas_used - gas_before
            )
        self.ctx.retries.pop(phase.name, None)
        self.emit("phase.completed",
                  gas_used=self.market.chain.total_gas_used - gas_before)
        return None

    def _recover_or_fail(self, phase: "LifecyclePhase",
                         error: LifecycleError, span: Any) -> str:
        """Consult :func:`~repro.core.resilience.decide` when recovery is
        on; apply its directive or fail."""
        from repro.core.resilience import decide

        directive = decide(self, phase, error) if self.recover else None
        if directive is None:
            self._fail(phase, error)
            raise error
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

    def _fail(self, phase: "LifecyclePhase", error: LifecycleError) -> None:
        self.emit("phase.failed", error=type(error).__name__,
                  message=str(error))
        self._release_escrow()
        _SESSION_OUTCOMES.labels(outcome="failed").inc()
        self.advance(TERMINAL_FAILED)
        self._release_enclaves(self.ctx.executors)
        self.emit("session.failed", phase=phase.name)

    def _release_enclaves(self, executors: list[ExecutorActor]) -> None:
        """Terminate and forget this workload's enclaves on ``executors``:
        decrypted provider rows must not outlive the session they were
        submitted to (a paused session keeps its enclaves)."""
        for executor in executors:
            enclave = executor.enclaves.pop(self.kind.workload_id, None)
            if enclave is not None:
                enclave.terminate()

    def _release_escrow(self) -> None:
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
            # The failed phase's own sends die with it.  The seam raises
            # unless the abort was mined and succeeded (state cancelled).
            self.awaited.clear()
            self.send(self.consumer.wallet, "abort")
            self.market.mine_and_read(self.awaited, required=True,
                                      drain=True)
            ctx.refunded = escrow
            _ESCROW_REFUNDED.inc(escrow)
            self.emit("session.refunded", actor=self.consumer.address,
                      refunded=escrow)
        except PDS2Error as exc:
            self.emit("session.refund_failed", error=type(exc).__name__,
                      message=str(exc))

    # -- helpers shared between the honest engine and interceptors ----------

    def send(self, wallet: "Wallet", method: str, **args: Any) -> None:
        """Queue one call to the workload contract and await its receipt."""
        self.market.send(self.awaited, wallet, self.ctx.workload_address,
                         method, **args)

    def cast_vote(self, executor: ExecutorActor, result_hash: str,
                  weights_bps: dict[str, int]) -> None:
        """One executor submits one (result hash, weights) vote on-chain."""
        self.send(executor.wallet, "submit_result", result_hash=result_hash,
                  provider_weights_bps=weights_bps)
        self.ctx.voted.add(executor.address)
        self.emit("settle.vote_cast", actor=executor.address,
                  result_hash=result_hash)

    def read_state(self) -> str:
        """The workload contract's current lifecycle state (free view)."""
        return self.consumer.wallet.view(self.ctx.workload_address, "state")

    def collect_payouts(self) -> dict[str, int]:
        """Sum the contract's RewardPaid events per recipient."""
        payouts: dict[str, int] = {}
        for _, log in self.market.chain.events(
            name="RewardPaid", address=self.ctx.workload_address
        ):
            payouts[log.data["recipient"]] = (
                payouts.get(log.data["recipient"], 0)
                + int(log.data["amount"])
            )
        return payouts


# ---------------------------------------------------------------------------
# The phases
# ---------------------------------------------------------------------------


class LifecyclePhase:
    """One individually-testable lifecycle step.

    A phase never mines.  :meth:`run` is all of an off-chain phase and the
    *submit* half of an ``on_chain`` one (:meth:`WorkloadSession.send`) —
    the half a :data:`PhaseInterceptor` replaces.  The engine then mines
    one block through :meth:`Marketplace.mine_and_read`, also when nothing
    was sent, and calls :meth:`after_block` with the receipts of what was.
    A phase that ``drain``s is not over while a transaction the block gas
    limit deferred is still pooled: the seam mines until each has a receipt.
    """

    name: str = ""
    failure_class: type[LifecycleError] = LifecycleError
    on_chain: bool = False
    drain: bool = False

    def run(self, session: WorkloadSession) -> None:
        raise NotImplementedError

    def after_block(self, session: WorkloadSession,
                    receipts: list["Receipt"]) -> None:
        """What follows the block; every receipt passed here succeeded
        unless an interceptor sent its transaction."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<phase {self.name}>"


class DeployPhase(LifecyclePhase):
    """Fig. 2 step 1: validate the run and deploy the escrowed contract."""

    name = PHASE_DEPLOY
    failure_class = DeployFailure
    on_chain = True
    drain = True  # the next phases need the contract's address

    def run(self, session: WorkloadSession) -> None:
        kind = session.kind
        executors = session.ctx.executors
        if not executors:
            raise DeployFailure("no executors available",
                                snapshot=session.record())
        if kind.required_confirmations > len(executors):
            raise DeployFailure(
                "spec requires more confirmations than executors exist",
                snapshot=session.record(),
            )
        session.fault_point("deploy.chain_tx")
        wallet = session.consumer.wallet
        tx_hash = wallet.deploy("workload", value=kind.reward_pool,
                                **kind.contract_args())
        session.awaited.append((tx_hash, wallet.address, "deploy"))

    def after_block(self, session: WorkloadSession,
                    receipts: list["Receipt"]) -> None:
        session.ctx.workload_address = receipts[-1].contract_address
        session.emit("contract.deployed",
                     actor=session.consumer.address,
                     workload_address=session.ctx.workload_address,
                     reward_pool=session.kind.reward_pool)


class MatchPhase(LifecyclePhase):
    """Fig. 2 step 2: storage-subsystem matching + provider consent."""

    name = PHASE_MATCH
    failure_class = MatchFailure

    def run(self, session: WorkloadSession) -> None:
        participants = [
            provider for provider in session.kind.match(session.market)
            if provider.address not in session.ctx.dropped_providers
        ]
        if len(participants) < session.kind.min_providers:
            raise MatchFailure(
                f"only {len(participants)} willing providers; "
                f"spec requires {session.kind.min_providers}",
                snapshot=session.record(),
            )
        session.ctx.participants = participants
        for provider in participants:
            session.emit("match.provider_joined", actor=provider.address)
        session.emit("match.completed", providers=len(participants))


class RegisterExecutorsPhase(LifecyclePhase):
    """Fig. 2 step 3: executors launch enclaves and register on-chain."""

    name = PHASE_REGISTER
    failure_class = RegistrationFailure
    on_chain = True

    def run(self, session: WorkloadSession) -> None:
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


class AttestAndSubmitPhase(LifecyclePhase):
    """Fig. 2 step 4: providers attest executors, send data + certificates."""

    name = PHASE_SUBMIT
    failure_class = SubmissionFailure
    on_chain = True

    def run(self, session: WorkloadSession) -> None:
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
            envelope, certificate = provider.prepare_submission_for(
                kind.workload_id, executor.address, enclave_key,
                issued_at=market._tick(),
                rng=derive_rng(market.seed,
                               kind.submission_rng_label(provider)),
            )
            certificate.verify()
            executor.accept_data_for(
                kind.workload_id, kind.code, provider.address, envelope,
                provider.wallet.key.public_key,
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


class StartExecutionPhase(LifecyclePhase):
    """Fig. 2 step 5: gate execution on the consumer's preconditions."""

    name = PHASE_START
    failure_class = StartFailure
    on_chain = True
    drain = True  # no enclave runs before the gate's receipt is read

    def run(self, session: WorkloadSession) -> None:
        session.fault_point("start.chain_tx")
        session.send(session.consumer.wallet, "start_execution")
        session.emit("execution.start_requested",
                     actor=session.consumer.address)


class ExecutePhase(LifecyclePhase):
    """Fig. 2 step 6a: every enclave that received data executes."""

    name = PHASE_EXECUTE
    failure_class = ExecutionFailure

    def run(self, session: WorkloadSession) -> None:
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


class AggregatePhase(LifecyclePhase):
    """Fig. 2 step 6b: all-reduce outputs and agree on payout weights."""

    name = PHASE_AGGREGATE
    failure_class = AggregationFailure

    def run(self, session: WorkloadSession) -> None:
        ctx = session.ctx
        vector, weights_bps, extra = session.kind.combine(
            session, ctx.outputs
        )
        ctx.result_vector = vector
        ctx.weights_bps = weights_bps
        ctx.extra = extra
        ctx.result_hash = result_hash_of(vector, weights_bps)
        session.emit("aggregate.completed", result_hash=ctx.result_hash,
                     outputs=len(ctx.outputs), degraded=ctx.degraded)


class SettlePhase(LifecyclePhase):
    """Fig. 2 step 6c/7: quorum votes, contract payout, reward accounting.

    The adversary harness intercepts this phase to cast malicious votes;
    :meth:`after_block` is the tail the engine runs after either.
    """

    name = PHASE_SETTLE
    failure_class = SettlementFailure
    on_chain = True

    def run(self, session: WorkloadSession) -> None:
        ctx = session.ctx
        voters = ctx.active_executors[:session.kind.required_confirmations]
        for executor in voters:
            if executor.address in ctx.voted:
                continue  # recovery re-entry: vote already on-chain
            session.fault_point("settle.chain_tx", executor=executor)
            session.cast_vote(executor, ctx.result_hash, ctx.weights_bps)

    def after_block(self, session: WorkloadSession,
                    receipts: list["Receipt"]) -> None:
        """Check completion and account the payouts."""
        ctx = session.ctx
        ctx.final_state = session.read_state()
        if ctx.final_state != STATE_COMPLETE:
            session.emit("settle.incomplete", state=ctx.final_state)
            if session.require_completion:
                raise SettlementFailure(
                    "workload did not complete "
                    f"(state={ctx.final_state!r})",
                    snapshot=session.record(),
                )
            return
        ctx.payouts = session.collect_payouts()
        for provider in ctx.participants:
            provider.rewards_received += ctx.payouts.get(provider.address, 0)
        session.emit("settle.payouts_recorded",
                     total_paid=sum(ctx.payouts.values()),
                     recipients=len(ctx.payouts))


class AuditPhase(LifecyclePhase):
    """Fig. 2 step 8: re-derive the history and cross-check the event trail."""

    name = PHASE_AUDIT
    failure_class = AuditFailure

    def run(self, session: WorkloadSession) -> None:
        if not session.audit_enabled:
            return
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
    DeployPhase(),
    MatchPhase(),
    RegisterExecutorsPhase(),
    AttestAndSubmitPhase(),
    StartExecutionPhase(),
    ExecutePhase(),
    AggregatePhase(),
    SettlePhase(),
    AuditPhase(),
)

#: Phase name -> phase object, for tests and interceptor writers.
PHASES_BY_NAME: dict[str, LifecyclePhase] = {
    phase.name: phase for phase in LIFECYCLE_PHASES
}

#: Phase name -> position in the canonical order (recovery re-entry).
PHASE_INDEX: dict[str, int] = {
    phase.name: index for index, phase in enumerate(LIFECYCLE_PHASES)
}
