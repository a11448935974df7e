"""Deterministic fault injection and recovery for the workload lifecycle.

Section VI of the paper leaves "feasibility testing under realistic
failure" open; this module closes the loop for the reproduction.  It has
two halves that meet inside :class:`~repro.core.lifecycle.WorkloadSession`:

* **Injection** — a :class:`FaultPlan` is a declarative list of
  :class:`Fault` entries (what kind, which actor, how many times).  The
  session's named ``fault_point`` hooks hand every would-be failure site
  to a :class:`FaultInjector`, which raises an
  :class:`~repro.errors.InjectedFaultError` exactly when the plan says so.
  Plans are plain data and every stochastic choice is made by
  :func:`derive_rng`, so an injected run is as byte-deterministic as a
  clean one.

* **Recovery** — :func:`decide` says what the engine does about a
  failure: transient faults back off and **retry** on the sim clock
  (:func:`retry_delay`); an executor that died while the contract is
  still OPEN is blacklisted and its providers **re-matched** onto the
  survivors; an executor that died mid-execute takes its enclave (and the
  data inside) with it, so the run **degrades** to the surviving quorum
  and the largest-remainder payout only rewards actual contributors; a
  provider that keeps failing past its retry budget is **dropped** as
  long as ``min_providers`` still holds.

:func:`run_with_faults` wires both halves to one session and returns it;
:data:`SCENARIOS` names the canned plans the CLI
(``python -m repro faults <scenario>``) and the CI smoke job run.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.lifecycle import (
    PHASE_EXECUTE,
    PHASE_REGISTER,
    PHASE_SUBMIT,
    LifecyclePhase,
    MLTrainingKind,
    RecoveryDirective,
    WorkloadKind,
    WorkloadSession,
)
from repro.core.workload import WorkloadSpec
from repro.errors import InjectedFaultError, LifecycleError
from repro.telemetry import metrics as _tm
from repro.telemetry import tracing as _tt
from repro.utils.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.actors import ConsumerActor, ExecutorActor, ProviderActor
    from repro.core.marketplace import Marketplace

_FAULTS_INJECTED = _tm.counter(
    "pds2_faults_injected_total", "Faults fired by the injection harness",
    labelnames=("kind",),
)


# ---------------------------------------------------------------------------
# The fault plan DSL
# ---------------------------------------------------------------------------


class FaultKind(str, enum.Enum):
    """Failure modes the harness can inject, mapped to lifecycle points."""

    #: Executor host dies before attestation (while registering).
    CRASH_REGISTER = "crash_register"
    #: Executor host dies after attestation, while receiving data.
    CRASH_SUBMIT = "crash_submit"
    #: Executor host dies mid-execute — enclave and data are gone.
    CRASH_EXECUTE = "crash_execute"
    #: A provider's encrypted submission is lost in transit (transient).
    DROP_SUBMISSION = "drop_submission"
    #: A provider's submission arrives corrupted (transient: resend).
    CORRUPT_SUBMISSION = "corrupt_submission"
    #: The provider is churned offline at submission time (transient —
    #: until the retry budget runs out and the policy drops it).
    PROVIDER_CHURN = "provider_churn"
    #: A chain transaction is rejected this attempt (transient).
    CHAIN_REJECT = "chain_reject"


#: Injection points each kind can fire at (``Fault.point`` can pin one).
KIND_POINTS: dict[FaultKind, tuple[str, ...]] = {
    FaultKind.CRASH_REGISTER: ("register.executor",),
    FaultKind.CRASH_SUBMIT: ("submit.executor",),
    FaultKind.CRASH_EXECUTE: ("execute.executor",),
    FaultKind.DROP_SUBMISSION: ("submit.provider",),
    FaultKind.CORRUPT_SUBMISSION: ("submit.provider",),
    FaultKind.PROVIDER_CHURN: ("submit.provider",),
    FaultKind.CHAIN_REJECT: ("deploy.chain_tx", "start.chain_tx",
                             "settle.chain_tx"),
}

#: Kinds a plain retry can clear.
TRANSIENT_KINDS = frozenset({
    FaultKind.DROP_SUBMISSION, FaultKind.CORRUPT_SUBMISSION,
    FaultKind.PROVIDER_CHURN, FaultKind.CHAIN_REJECT,
})

#: Kinds that kill the executor they target.
CRASH_KINDS = frozenset({
    FaultKind.CRASH_REGISTER, FaultKind.CRASH_SUBMIT,
    FaultKind.CRASH_EXECUTE,
})


@dataclass(frozen=True)
class Fault:
    """One planned fault.

    ``target`` names the actor it strikes (actor name or address; empty
    matches any actor at the point), ``times`` bounds how often it fires,
    and ``point`` optionally pins a multi-point kind (chain rejection) to
    one specific injection point.
    """

    kind: FaultKind
    target: str = ""
    times: int = 1
    point: str = ""

    def describe(self) -> str:
        where = self.point or "/".join(KIND_POINTS[self.kind])
        who = self.target or "any"
        return f"{self.kind.value} @ {where} on {who} (x{self.times})"

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "target": self.target,
                "times": self.times, "point": self.point}


def job_fault_seed(job_id: str) -> int:
    """Deterministic fault seed derived from a batch job spec id alone.

    Sharding must not change fault sequences: whichever worker (or how
    many workers) runs a job, its plan derives from the spec id, never
    from process-global state — so a sharded sweep reproduces the
    single-process fault sequence exactly.
    """
    payload = b"pds2-job-fault|" + job_id.encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, deterministic set of faults for one session."""

    faults: tuple[Fault, ...] = ()

    @classmethod
    def single(cls, kind: FaultKind, target: str = "", times: int = 1,
               point: str = "") -> "FaultPlan":
        return cls(faults=(Fault(kind, target=target, times=times,
                                 point=point),))

    @classmethod
    def sample(cls, rate: float, executor_names: Sequence[str],
               provider_names: Sequence[str], seed: int) -> "FaultPlan":
        """Draw a plan where each actor independently fails with ``rate``.

        Used by the E18 sweep: executors draw a mid-execute crash,
        providers a dropped submission, and the run as a whole a transient
        chain rejection.  All draws come from one derived rng, so the same
        (rate, actors, seed) triple always yields the same plan.  A rate
        outside [0, 1] is not a probability: ``ValueError``.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        rng = derive_rng(seed, f"fault-plan-{rate}")
        faults: list[Fault] = []
        for name in executor_names:
            if rng.random() < rate:
                faults.append(Fault(FaultKind.CRASH_EXECUTE, target=name))
        for name in provider_names:
            if rng.random() < rate:
                faults.append(Fault(FaultKind.DROP_SUBMISSION, target=name))
        if rng.random() < rate:
            faults.append(Fault(FaultKind.CHAIN_REJECT,
                                point="start.chain_tx"))
        return cls(faults=tuple(faults))

    @classmethod
    def for_job(cls, job_id: str, rate: float,
                executor_names: Sequence[str],
                provider_names: Sequence[str]) -> "FaultPlan":
        """The :meth:`sample` distribution, seeded per job spec id.

        Composable with batch sharding: the plan depends only on
        ``(job_id, rate, actors)``, so every worker — and the
        single-process baseline — draws the identical plan for a job.
        """
        return cls.sample(rate, executor_names, provider_names,
                          seed=job_fault_seed(job_id))

    def describe(self) -> list[str]:
        return [fault.describe() for fault in self.faults]

    def to_dict(self) -> dict:
        return {"faults": [fault.to_dict() for fault in self.faults]}


class FaultInjector:
    """Arms a plan against one session's ``fault_point`` hooks."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._remaining = {index: fault.times
                           for index, fault in enumerate(plan.faults)}
        #: Every fault that actually fired, in order.
        self.injected: list[dict] = []

    def state_dict(self) -> dict:
        """The injector's part of a boundary record (plan, remaining
        budgets, what fired) — seed-determined, so it is in the digest."""
        return {
            "plan": self.plan.to_dict(),
            "remaining": {str(index): count
                          for index, count in self._remaining.items()},
            "injected": [dict(entry) for entry in self.injected],
        }

    def fire(self, session: WorkloadSession, point: str,
             executor: Optional["ExecutorActor"] = None,
             provider: Optional["ProviderActor"] = None) -> None:
        """Raise the first still-armed fault matching this point/actor."""
        actor = provider if provider is not None else executor
        names = {actor.name, actor.address} if actor is not None else set()
        for index, fault in enumerate(self.plan.faults):
            if self._remaining[index] <= 0:
                continue
            if point not in KIND_POINTS[fault.kind]:
                continue
            if fault.point and fault.point != point:
                continue
            if fault.target and fault.target not in names:
                continue
            self._remaining[index] -= 1
            self._inject(session, point, fault, executor=executor,
                         provider=provider)

    def _inject(self, session: WorkloadSession, point: str, fault: Fault,
                executor: Optional["ExecutorActor"],
                provider: Optional["ProviderActor"]) -> None:
        dead_executor = ""
        if fault.kind in CRASH_KINDS and executor is not None:
            dead_executor = executor.address
            # The host is gone: its enclave (and any provisioned data)
            # does not survive the crash.
            enclave = executor.enclaves.get(session.kind.workload_id)
            if enclave is not None:
                enclave.terminate()
        provider_address = provider.address if provider is not None else ""
        record = {
            "kind": fault.kind.value,
            "point": point,
            "target": fault.target,
            "executor": executor.address if executor is not None else "",
            "provider": provider_address,
            "sim_clock": session.market.clock,
        }
        self.injected.append(record)
        _FAULTS_INJECTED.labels(kind=fault.kind.value).inc()
        # Stamp the innermost open span so the distributed trace shows
        # *where* the fault fired without correlating against the event
        # log (a fault that fails the session also marks it status=error).
        current = _tt.tracer().current
        if current is not None:
            current.set_attribute("fault_kind", fault.kind.value)
            current.set_attribute("fault_point", point)
        session.emit("fault.injected", point=point, kind=fault.kind.value,
                     target=fault.target, dead_executor=dead_executor,
                     provider=provider_address)
        raise InjectedFaultError(
            f"injected {fault.kind.value} at {point}"
            + (f" on {fault.target}" if fault.target else ""),
            point=point,
            transient=fault.kind in TRANSIENT_KINDS,
            dead_executor=dead_executor,
            provider=provider_address,
        )


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------

#: Retries of one phase before the engine gives up on it (or drops the
#: provider that keeps failing).
MAX_ATTEMPTS = 5
#: Capped exponential backoff, waited out on the *sim* clock.
BASE_DELAY_S = 1.0
BACKOFF_MULTIPLIER = 2.0
MAX_DELAY_S = 30.0
#: Hard cap on total recovery actions per session (loop backstop).
MAX_RECOVERIES = 16


def retry_delay(attempt: int) -> float:
    """Backoff before retry number ``attempt`` (0-based)."""
    return min(MAX_DELAY_S, BASE_DELAY_S * BACKOFF_MULTIPLIER ** attempt)


def decide(session: WorkloadSession, phase: LifecyclePhase,
           error: LifecycleError) -> Optional[RecoveryDirective]:
    """Map one phase failure to a :class:`RecoveryDirective` (or None).

    The engine fails the session whenever this returns None, exactly as it
    does with ``recover=False`` — so recovery only ever *adds* ways to
    survive.
    """
    if len(session.ctx.recovery_log) >= MAX_RECOVERIES:
        return None
    if getattr(error, "transient", False):
        return _transient(session, phase, error)
    dead = getattr(error, "dead_executor", "")
    if dead:
        return _executor_dead(session, phase, dead)
    return None


def _transient(session: WorkloadSession, phase: LifecyclePhase,
               error: LifecycleError) -> Optional[RecoveryDirective]:
    """Transient faults: retry, then (for providers) drop."""
    attempt = session.ctx.retries.get(phase.name, 0)
    if attempt < MAX_ATTEMPTS:
        return RecoveryDirective(
            action="retry", target=phase.name,
            delay_s=retry_delay(attempt),
            reason=f"transient: {type(error).__name__}",
        )
    # Retry budget exhausted.  A provider that keeps failing can be cut
    # loose as long as the match still satisfies the spec.
    provider = getattr(error, "provider", "")
    if provider:
        remaining = len(session.ctx.participants) - 1
        if remaining >= session.kind.min_providers:
            return RecoveryDirective(
                action="drop_provider", target=phase.name,
                provider=provider,
                reason="retry budget exhausted; dropping provider",
            )
    return None


def _executor_dead(session: WorkloadSession, phase: LifecyclePhase,
                   dead: str) -> Optional[RecoveryDirective]:
    """Dead executors: re-match while OPEN, degrade while EXECUTING."""
    ctx = session.ctx
    live = [e for e in ctx.executors if e.address != dead]
    need = session.kind.required_confirmations
    if phase.name in (PHASE_REGISTER, PHASE_SUBMIT):
        if live and len(live) >= need:
            return RecoveryDirective(
                action="rematch", target=PHASE_REGISTER,
                dead_executor=dead,
                reason="executor crashed before start; re-matching "
                       "its providers onto the survivors",
            )
        return None
    if phase.name == PHASE_EXECUTE:
        # Data provisioned into the dead enclave is unrecoverable, so
        # only executors that still hold data can carry the quorum.
        live_active = [e for e in live if ctx.assignments.get(e.address)]
        if live_active and len(live_active) >= need:
            return RecoveryDirective(
                action="degrade", target=PHASE_EXECUTE,
                dead_executor=dead,
                reason="executor crashed mid-execute; continuing on "
                       "the surviving quorum",
            )
    return None


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def run_with_faults(market: "Marketplace", consumer: "ConsumerActor",
                    kind: WorkloadKind | WorkloadSpec,
                    plan: FaultPlan,
                    *, recover: bool = True) -> WorkloadSession:
    """Run one lifecycle session with ``plan`` armed; return the session.

    ``recover=False`` runs the pre-recovery engine — every injected fault
    is terminal — which is the baseline the acceptance criterion and the
    E18 sweep compare against.  The function never raises on lifecycle
    failure: the finished session reports it (``outcome``, ``failure``,
    ``ctx``, ``injector.injected``).
    """
    if isinstance(kind, WorkloadSpec):
        kind = MLTrainingKind(kind)
    return WorkloadSession(
        market, consumer, kind, recover=recover, injector=FaultInjector(plan),
    ).run()


# ---------------------------------------------------------------------------
# Named scenarios (CLI + CI smoke)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A canned fault plan parameterized by the session's actor names."""

    name: str
    description: str
    kind: FaultKind
    #: Which executor/provider (by position) the fault strikes.
    executor_index: Optional[int] = None
    provider_index: Optional[int] = None
    times: int = 1

    def plan(self, executor_names: Sequence[str],
             provider_names: Sequence[str]) -> FaultPlan:
        target = ""
        if self.executor_index is not None and executor_names:
            target = executor_names[self.executor_index % len(executor_names)]
        elif self.provider_index is not None and provider_names:
            target = provider_names[self.provider_index % len(provider_names)]
        return FaultPlan.single(self.kind, target=target, times=self.times)


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario for scenario in (
        Scenario("crash-execute",
                 "one executor dies mid-execute; the run degrades to the "
                 "surviving quorum and only contributors are paid",
                 FaultKind.CRASH_EXECUTE, executor_index=1),
        Scenario("crash-register",
                 "one executor dies before attestation; it is blacklisted "
                 "and registration re-enters over the survivors",
                 FaultKind.CRASH_REGISTER, executor_index=1),
        Scenario("crash-submit",
                 "one executor dies while receiving data; its providers "
                 "are re-matched onto the survivors",
                 FaultKind.CRASH_SUBMIT, executor_index=1),
        Scenario("drop-submission",
                 "one provider's submission is lost once; the retry "
                 "policy resends it after backoff",
                 FaultKind.DROP_SUBMISSION, provider_index=0),
        Scenario("churn-provider",
                 "one provider flaps offline twice at submission; retries "
                 "ride out the churn",
                 FaultKind.PROVIDER_CHURN, provider_index=0, times=2),
        Scenario("drop-provider",
                 "one provider never comes back; after the retry budget "
                 "it is dropped and the match degrades",
                 FaultKind.PROVIDER_CHURN, provider_index=0, times=1_000),
        Scenario("chain-flaky",
                 "transient chain-level rejections; every affected "
                 "transaction is retried with backoff",
                 FaultKind.CHAIN_REJECT, times=2),
    )
}
