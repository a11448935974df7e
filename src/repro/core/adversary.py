"""Adversarial actors: misbehaving executors and how the protocol holds.

Section II-E requires that executors have "no way to tamper with the results
without being detected".  Two mechanisms enforce this in PDS2:

1. **attestation** — providers only send data to enclaves whose measurement
   matches the on-chain workload code, so an executor cannot substitute its
   own training code and still receive inputs;
2. **result quorum** — the workload contract pays only when
   ``required_confirmations`` *identical* (result hash, payout weights)
   votes accumulate, so a minority of lying executors cannot corrupt the
   result or the rewards.

This module provides the attack harness used by tests and the E15 fault
bench.  It plugs into the lifecycle engine as a *phase interceptor*: the
session runs every phase honestly up to aggregation, then the intercepted
settle phase casts one vote per executor according to its assigned
behavior — no marketplace internals are duplicated or reached into.
"""

from __future__ import annotations

import enum

from repro.core.lifecycle import (
    PHASE_SETTLE,
    LifecyclePhase,
    MLTrainingKind,
    WorkloadSession,
)
from repro.core.marketplace import Marketplace
from repro.core.workload import WorkloadSpec
from repro.errors import LifecycleError, MarketplaceError
from repro.governance.contracts import BPS


class ExecutorBehavior(enum.Enum):
    """How an executor acts when submitting results."""

    HONEST = "honest"
    WRONG_RESULT = "wrong_result"       # votes for a fabricated model hash
    SELF_DEALING = "self_dealing"       # reroutes payout weights to a crony
    SILENT = "silent"                   # never submits (lazy/crashed)


def adversarial_settle_interceptor(behaviors: list["ExecutorBehavior"]):
    """Build a settle-phase interceptor casting one vote per behavior.

    The default settle phase has the first ``required_confirmations``
    active executors vote the honest (hash, weights) pair; this replacement
    lets *every* active executor vote according to its assigned behavior.
    The engine then mines and runs the phase's own
    :meth:`~repro.core.lifecycle.SettlePhase.after_block` (state check,
    payout accounting); a vote the contract reverts is reported in the
    trail as ``chain.tx_reverted``, not raised.
    """

    def intercept(session: WorkloadSession, phase: LifecyclePhase) -> None:
        ctx = session.ctx
        for executor, behavior in zip(ctx.executors, behaviors):
            if executor not in ctx.active_executors:
                continue
            if behavior is ExecutorBehavior.HONEST:
                session.cast_vote(executor, ctx.result_hash, ctx.weights_bps)
            elif behavior is ExecutorBehavior.WRONG_RESULT:
                session.cast_vote(executor, "ff" * 32, ctx.weights_bps)
            elif behavior is ExecutorBehavior.SELF_DEALING:
                # Route everything to one (possibly sybil) provider the
                # attacker controls — the contract only accepts registered
                # participants, so the crony must be a participant to even
                # be a valid key.
                corrupt = dict.fromkeys(ctx.weights_bps, 0)
                victim = sorted(corrupt)[0]
                corrupt[victim] = BPS
                session.cast_vote(executor, ctx.result_hash, corrupt)
            # SILENT: do nothing.

    return intercept


#: The non-participant address a self-dealing payout would have to reach.
CRONY_ADDRESS = "0x" + "c0" * 20


def run_with_adversaries(market: Marketplace, consumer, spec: WorkloadSpec,
                         behaviors: list[ExecutorBehavior],
                         ) -> WorkloadSession:
    """Run the Fig. 2 lifecycle with per-executor behaviors.

    Drives the same :class:`~repro.core.lifecycle.WorkloadSession` engine
    as :meth:`Marketplace.run_workload`, with the settle phase intercepted
    so each executor votes according to its assigned behavior.  The
    function never raises on adversarial failure: a quorum that never
    forms fails the session in settle, which refunds the escrow, and the
    returned session reports what the contract did.
    """
    executors = market.executors
    if len(behaviors) != len(executors):
        raise MarketplaceError("one behavior per marketplace executor")

    session = market.session_for(
        consumer, MLTrainingKind(spec),
        interceptors={PHASE_SETTLE: adversarial_settle_interceptor(behaviors)},
    )
    try:
        session.run()
    except LifecycleError:
        pass  # the session holds it as ``failure``
    return session
