"""Privacy-leak control (paper Section IV-D).

DP-SGD training with Rényi-DP accounting, the membership-inference attack
used to *measure* leakage, and the workload risk analyzer executors run
before accepting a job.
"""

from repro.privacy.accountant import DEFAULT_ORDERS, RDPAccountant
from repro.privacy.attacks import (
    MembershipInferenceResult,
    membership_inference_attack,
)
from repro.privacy.dpsgd import (
    DPSGDConfig,
    DPSGDResult,
    clip_gradients,
    noise_multiplier_for_epsilon,
    train_dpsgd,
)
from repro.privacy.leakage import (
    MitigationLevel,
    OutputKind,
    RiskAssessment,
    WorkloadRiskProfile,
    assess_workload,
)

__all__ = [
    "DEFAULT_ORDERS",
    "RDPAccountant",
    "MembershipInferenceResult",
    "membership_inference_attack",
    "DPSGDConfig",
    "DPSGDResult",
    "clip_gradients",
    "noise_multiplier_for_epsilon",
    "train_dpsgd",
    "MitigationLevel",
    "OutputKind",
    "RiskAssessment",
    "WorkloadRiskProfile",
    "assess_workload",
]
