"""Trustless auditing of marketplace history (paper Section II-E).

"All actions in the platform should be automatically audited by the
governance layer, in a trustless decentralized fashion."  Because every
workload step emits events from a sealed chain, any party can re-derive and
check the full history.  :func:`audit_workload` performs the checks:

1. the chain verifies (seals, parent links, tx roots) from the block of
   the workload's first event, and that block links to its parent (the
   whole-chain check is ``Blockchain.verify_chain()``; DESIGN §16);
2. the workload's event sequence respects the lifecycle state machine;
3. every paid reward corresponds to a recorded participant;
4. reward conservation: total payouts equal the escrowed pool (when the
   workload completed);
5. every certificate hash recorded is unique (no double counting).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.blockchain import Blockchain
from repro.governance.contracts import STATE_COMPLETE


@dataclass
class AuditReport:
    """Findings of one workload audit."""

    workload_address: str
    chain_valid: bool
    lifecycle_valid: bool
    rewards_conserved: bool
    total_paid: int
    escrow: int
    providers_paid: int
    executors_paid: int
    certificates: int
    violations: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no violations were found."""
        return not self.violations


_PHASE_ORDER = {
    "WorkloadCreated": 0,
    "ExecutorRegistered": 1,
    "ParticipationRecorded": 1,
    "ExecutionStarted": 2,
    "ResultSubmitted": 3,
    "RewardPaid": 3,
    "WorkloadCompleted": 4,
    "WorkloadCancelled": 4,
}


def audit_workload(chain: Blockchain, workload_address: str,
                   auditor: str | None = None) -> AuditReport:
    """Re-derive and verify one workload's full history from chain data."""
    violations: list[str] = []

    logged = list(chain.events(address=workload_address))
    events = [log for _, log in logged]
    chain_valid = True
    try:
        chain.verify_chain(since=logged[0][0] if logged else 0)
    except Exception as exc:  # noqa: BLE001 - auditors report, not crash
        chain_valid = False
        violations.append(f"chain verification failed: {exc}")

    if not events or events[0].name != "WorkloadCreated":
        violations.append("history does not begin with WorkloadCreated")
        return AuditReport(
            workload_address=workload_address, chain_valid=chain_valid,
            lifecycle_valid=False, rewards_conserved=False, total_paid=0,
            escrow=0, providers_paid=0, executors_paid=0, certificates=0,
            violations=violations,
        )

    escrow = int(events[0].data.get("escrow", 0))

    # 2. lifecycle monotonicity.
    lifecycle_valid = True
    phase = 0
    for event in events:
        event_phase = _PHASE_ORDER.get(event.name)
        if event_phase is None:
            continue
        if event_phase < phase:
            lifecycle_valid = False
            violations.append(
                f"event {event.name} arrived after phase {phase}"
            )
        phase = max(phase, event_phase)

    # 3 + 4. payout accounting.
    participants = {
        event.data["provider"] for event in events
        if event.name == "ParticipationRecorded"
    }
    executors = {
        event.data["executor"] for event in events
        if event.name == "ExecutorRegistered"
    }
    providers_paid = 0
    executors_paid = 0
    total_paid = 0
    for event in events:
        if event.name != "RewardPaid":
            continue
        amount = int(event.data["amount"])
        total_paid += amount
        recipient = event.data["recipient"]
        role = event.data["role"]
        if role == "provider":
            providers_paid += 1
            if recipient not in participants:
                violations.append(
                    f"provider reward to non-participant {recipient}"
                )
        elif role == "executor":
            executors_paid += 1
            if recipient not in executors:
                violations.append(
                    f"executor reward to unregistered executor {recipient}"
                )
        else:
            violations.append(f"unknown reward role {role!r}")

    completed = any(e.name == "WorkloadCompleted" for e in events)
    cancelled = any(e.name == "WorkloadCancelled" for e in events)
    rewards_conserved = True
    if completed:
        if total_paid != escrow:
            rewards_conserved = False
            violations.append(
                f"paid {total_paid} but escrow was {escrow}"
            )
        caller = auditor if auditor is not None else workload_address
        state = chain.view(caller, workload_address, "state")
        if state != STATE_COMPLETE:
            violations.append(
                f"events show completion but state is {state!r}"
            )
    elif cancelled:
        if total_paid != 0:
            rewards_conserved = False
            violations.append("cancelled workload paid rewards")

    # 5. certificate uniqueness.
    certificate_hashes = [
        event.data["certificate_hash"] for event in events
        if event.name == "ParticipationRecorded"
    ]
    if len(certificate_hashes) != len(set(certificate_hashes)):
        violations.append("duplicate certificate hash recorded")

    return AuditReport(
        workload_address=workload_address,
        chain_valid=chain_valid,
        lifecycle_valid=lifecycle_valid,
        rewards_conserved=rewards_conserved,
        total_paid=total_paid,
        escrow=escrow,
        providers_paid=providers_paid,
        executors_paid=executors_paid,
        certificates=len(certificate_hashes),
        violations=violations,
    )


def trail_covers_chain(chain: Blockchain, workload_address: str,
                       trail: "list") -> list[str]:
    """Check that an off-chain event trail covers the on-chain history.

    ``trail`` is a session's lifecycle event log (duck-typed: items need
    ``.name`` and ``.data``); every log the workload contract emitted must
    appear in it as a ``chain.log`` event, with matching multiplicity.
    Returns the list of violations (empty when the trail is complete), so
    callers can fold it into an :class:`AuditReport`.
    """
    from collections import Counter

    on_chain: Counter = Counter(
        log.name for _, log in chain.events(address=workload_address)
    )
    observed: Counter = Counter(
        event.data.get("log_name") for event in trail
        if event.name == "chain.log"
        and event.data.get("log_address") == workload_address
    )
    violations: list[str] = []
    for log_name, count in sorted(on_chain.items()):
        seen = observed.get(log_name, 0)
        if seen < count:
            violations.append(
                f"event trail missing {count - seen} on-chain "
                f"{log_name} event(s)"
            )
    return violations
