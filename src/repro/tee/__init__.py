"""Trusted execution environments (paper Section III-B).

Behavioral SGX simulation: measured enclaves with isolation and remote
attestation, and a calibrated cost model relating TEE, SMC, HE and
plain execution.
"""

from repro.tee.attestation import AttestationService, Quote
from repro.tee.cost_model import (
    CostModel,
    ExecutionBackend,
    NetworkProfile,
    WorkloadProfile,
    mlp_profile,
)
from repro.tee.enclave import Enclave, EnclaveCode, TEEPlatform

__all__ = [
    "AttestationService",
    "Quote",
    "CostModel",
    "ExecutionBackend",
    "NetworkProfile",
    "WorkloadProfile",
    "mlp_profile",
    "Enclave",
    "EnclaveCode",
    "TEEPlatform",
]
