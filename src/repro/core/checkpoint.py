"""The boundary record of a session: what a replay is verified against.

A :class:`SessionCheckpoint` is the canonically-serialized projection of
one :class:`~repro.core.lifecycle.WorkloadSession`'s seed-determined
progress — current phase and next (re-)entry phase, the bookkeeping sets
(registered / submitted / certified / executed / voted), retry counters,
blacklist, payouts, the aggregated result, gas/block totals and the armed
fault injector's remaining budget.  It is coherent exactly at *phase
boundaries*, which is where the engine fires ``on_phase_boundary`` (after
every completed phase and after every applied recovery directive).

Nothing reads the bytes back.  A *paused* session continues by calling
``run()`` again on the live object; a *crashed* one comes back by
deterministic replay: :mod:`repro.control.supervisor` re-runs the job from
its seed and compares :meth:`SessionCheckpoint.digest` at each boundary
with the digest the dead worker journaled.  The record therefore excludes
everything wall-clock-bearing (the event trail), so two processes reaching
the same boundary at the same seed produce the same digest.  There is no
rehydration from a checkpoint: its precondition — a market still holding
the session's chain, enclaves and actors — is the presence of the object it
would rebuild.

``CHECKPOINT_FORMAT`` names the record layout and is part of every digest;
bump it when a field is added, removed or changes meaning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import Optional

import numpy as np

from repro.core.lifecycle import TERMINAL_STATES, WorkloadSession
from repro.errors import CheckpointError
from repro.utils.serialization import canonical_json_bytes

#: Record-layout identifier; bump on any field change (see module docs).
CHECKPOINT_FORMAT = "pds2-session-checkpoint/1"


@dataclass
class SessionCheckpoint:
    """One session's externalized progress, coherent at a phase boundary."""

    session_id: str
    workload_id: str
    #: Canonical hash of the workload spec the session runs.
    spec_hash: str
    #: The phase the session last completed (or was failing in, on a
    #: recovery edge); ``created`` before the first phase.
    state: str
    #: The phase the session (re-)enters next.  On the happy path this is
    #: the successor of ``state``; on a RECOVERY_TRANSITIONS edge it can be
    #: ``state`` itself or an earlier phase.
    next_phase: str
    consumer: str = ""
    workload_address: str = ""
    participants: list[str] = field(default_factory=list)
    executors: list[str] = field(default_factory=list)
    active_executors: list[str] = field(default_factory=list)
    #: Executor address -> provider addresses whose data its enclave holds.
    assignments: dict[str, list[str]] = field(default_factory=dict)
    outputs: list[dict] = field(default_factory=list)
    result_vector: np.ndarray = field(default_factory=lambda: np.zeros(0))
    weights_bps: dict[str, int] = field(default_factory=dict)
    result_hash: str = ""
    extra: dict = field(default_factory=dict)
    final_state: str = ""
    payouts: dict[str, int] = field(default_factory=dict)
    # -- phase bookkeeping (sorted for canonical bytes) --------------------
    registered: list[str] = field(default_factory=list)
    submitted: list[str] = field(default_factory=list)
    certified: list[str] = field(default_factory=list)
    executed: list[str] = field(default_factory=list)
    voted: list[str] = field(default_factory=list)
    blacklist: list[str] = field(default_factory=list)
    dropped_providers: list[str] = field(default_factory=list)
    degraded: bool = False
    retries: dict[str, int] = field(default_factory=dict)
    recovery_log: list[dict] = field(default_factory=list)
    refunded: int = 0
    # -- derived accounting ------------------------------------------------
    gas_used: int = 0
    blocks_mined: int = 0
    sim_clock: float = 0.0
    #: Armed fault injector state (plan + per-fault remaining budget +
    #: injected log), or None when the session runs without injection.
    injector: Optional[dict] = None

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """The progress record: every field is seed-determined, so equal
        records mean two runs made byte-identical progress."""
        record = {"format": CHECKPOINT_FORMAT, **vars(self)}
        if self.injector is None:  # absent, not null, when unarmed
            del record["injector"]
        return record

    def to_bytes(self) -> bytes:
        """The canonical encoding (stable across processes)."""
        return canonical_json_bytes(self.to_dict())

    def digest(self) -> str:
        """SHA-256 over :meth:`to_bytes`."""
        return sha256(self.to_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------


def checkpoint_session(session: WorkloadSession) -> SessionCheckpoint:
    """Capture ``session``'s progress (see ``WorkloadSession.checkpoint``)."""
    if session.state in TERMINAL_STATES:
        raise CheckpointError(
            f"cannot checkpoint a session in terminal state {session.state!r}"
        )
    ctx = session.ctx
    injector_state: Optional[dict] = None
    if session.injector is not None:
        state_dict = getattr(session.injector, "state_dict", None)
        if state_dict is None:
            raise CheckpointError(
                f"injector {type(session.injector).__name__} does not "
                "support checkpointing (no state_dict())"
            )
        injector_state = state_dict()
    return SessionCheckpoint(
        session_id=session.session_id,
        workload_id=session.kind.workload_id,
        spec_hash=session.kind.spec_hash(),
        state=session.state,
        next_phase=session.next_phase,
        consumer=session.consumer.address,
        workload_address=ctx.workload_address,
        participants=[p.address for p in ctx.participants],
        executors=[e.address for e in ctx.executors],
        active_executors=[e.address for e in ctx.active_executors],
        assignments={
            executor: [p.address for p in providers]
            for executor, providers in ctx.assignments.items()
        },
        outputs=list(ctx.outputs),
        result_vector=np.asarray(ctx.result_vector, dtype=float),
        weights_bps=dict(ctx.weights_bps),
        result_hash=ctx.result_hash,
        extra=dict(ctx.extra),
        final_state=ctx.final_state,
        payouts=dict(ctx.payouts),
        registered=sorted(ctx.registered),
        submitted=sorted(ctx.submitted),
        certified=sorted(ctx.certified),
        executed=sorted(ctx.executed),
        voted=sorted(ctx.voted),
        blacklist=list(ctx.blacklist),
        dropped_providers=sorted(ctx.dropped_providers),
        degraded=ctx.degraded,
        retries=dict(ctx.retries),
        recovery_log=[dict(entry) for entry in ctx.recovery_log],
        refunded=ctx.refunded,
        gas_used=session.gas_used,
        blocks_mined=session.blocks_mined,
        sim_clock=session.market.clock,
        injector=injector_state,
    )

