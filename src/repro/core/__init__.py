"""Marketplace core: the paper's primary contribution, assembled.

The :class:`Marketplace` facade wires the blockchain governance layer, TEE
executors, storage subsystems and reward schemes into the five-role
architecture of Fig. 1 and runs the full Fig. 2 workload lifecycle.
"""

from repro.core.adversary import (
    ExecutorBehavior,
    run_with_adversaries,
)
from repro.core.aggregates import (
    AggregateKind,
    AggregateResult,
    AggregateSpec,
    aggregate_enclave_entry_point,
    combine_aggregate_outputs,
)
from repro.core.actors import (
    ConsumerActor,
    ExecutorActor,
    ParticipationPolicy,
    ProviderActor,
    accept_all_policy,
    result_hash_of,
)
from repro.core.events import (
    EventBus,
    JSONLSink,
    LifecycleEvent,
    phase_gas_totals,
    phase_wall_times,
    read_jsonl_events,
)
from repro.core.lifecycle import (
    CHECKPOINT_FORMAT,
    LIFECYCLE_PHASES,
    RECOVERY_TRANSITIONS,
    TRANSITIONS,
    AggregateWorkloadKind,
    LifecyclePhase,
    MLTrainingKind,
    RecoveryDirective,
    SessionContext,
    WorkloadKind,
    WorkloadSession,
)
from repro.core.resilience import (
    SCENARIOS,
    Fault,
    FaultInjector,
    FaultKind,
    FaultPlan,
    Scenario,
    job_fault_seed,
    run_with_faults,
)
from repro.core.marketplace import DEFAULT_FUNDING, Marketplace
from repro.core.workload import (
    ModelSpec,
    TrainingSpec,
    WorkloadSpec,
    enclave_entry_point,
    serialize_partition,
)

__all__ = [
    "ExecutorBehavior",
    "run_with_adversaries",
    "AggregateKind",
    "AggregateResult",
    "AggregateSpec",
    "aggregate_enclave_entry_point",
    "combine_aggregate_outputs",
    "ConsumerActor",
    "ExecutorActor",
    "ParticipationPolicy",
    "ProviderActor",
    "accept_all_policy",
    "result_hash_of",
    "EventBus",
    "JSONLSink",
    "LifecycleEvent",
    "phase_gas_totals",
    "phase_wall_times",
    "read_jsonl_events",
    "CHECKPOINT_FORMAT",
    "LIFECYCLE_PHASES",
    "RECOVERY_TRANSITIONS",
    "TRANSITIONS",
    "AggregateWorkloadKind",
    "LifecyclePhase",
    "MLTrainingKind",
    "RecoveryDirective",
    "SessionContext",
    "WorkloadKind",
    "WorkloadSession",
    "SCENARIOS",
    "Fault",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "Scenario",
    "job_fault_seed",
    "run_with_faults",
    "DEFAULT_FUNDING",
    "Marketplace",
    "ModelSpec",
    "TrainingSpec",
    "WorkloadSpec",
    "enclave_entry_point",
    "serialize_partition",
]
