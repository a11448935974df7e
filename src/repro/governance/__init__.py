"""Governance layer (paper Sections II-C/D, III-A).

Participation certificates, the on-chain actor/data registries, the
per-workload lifecycle contract with escrow and payout, and the trustless
audit procedures.
"""

from repro.governance.audit import AuditReport, audit_workload
from repro.governance.certificates import (
    ParticipationCertificate,
    issue_certificate,
)
from repro.governance.contracts import (
    BPS,
    STATE_CANCELLED,
    STATE_COMPLETE,
    STATE_EXECUTING,
    STATE_OPEN,
    ActorRegistry,
    DataRegistry,
    WorkloadContract,
)

__all__ = [
    "AuditReport",
    "audit_workload",
    "ParticipationCertificate",
    "issue_certificate",
    "BPS",
    "STATE_CANCELLED",
    "STATE_COMPLETE",
    "STATE_EXECUTING",
    "STATE_OPEN",
    "ActorRegistry",
    "DataRegistry",
    "WorkloadContract",
]


def register_governance_contracts(registry) -> None:
    """Install the governance contract classes into a chain registry."""
    registry.register("actor_registry", ActorRegistry)
    registry.register("data_registry", DataRegistry)
    registry.register("workload", WorkloadContract)
