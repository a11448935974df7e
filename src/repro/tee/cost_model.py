"""Calibrated cost model for the four oblivious-computation backends.

Experiment E3/E4 must compare plain execution, TEEs, SMC and homomorphic
encryption.  Paillier and Beaver-triple SMC are *actually implemented* in
this repository and can be timed directly; SGX hardware is not available, so
TEE costs come from this parametric model, calibrated against the published
numbers the paper itself cites (Slalom, Falcon, and the systematic comparison
of Haralampieva et al. 2020):

* TEE compute runs at a small constant factor over plain CPU (~1.2x) until
  the working set exceeds the EPC (~92 MiB usable on client SGX), beyond
  which paging multiplies cost;
* each enclave transition (ECALL/OCALL) costs microseconds;
* SMC pays field arithmetic (~50x) plus *network rounds* — its signature
  failure mode for deep circuits;
* HE pays 4–6 orders of magnitude per multiply-accumulate.

All constants are explicit dataclass fields, so sensitivity analyses can
sweep them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ExecutionBackend(enum.Enum):
    """The privacy-preserving computation mechanisms of Section III-B."""

    PLAIN = "plain"
    TEE = "tee"
    SMC = "smc"
    HE = "he"


@dataclass(frozen=True)
class WorkloadProfile:
    """Abstract resource footprint of a workload.

    Attributes:
        macs: multiply-accumulate operations (the ML cost unit).
        data_bytes: input working-set size in bytes.
        interactive_depth: number of sequential rounds that cannot be
            batched (multiplicative depth for SMC, 1 for linear scoring).
        transitions: host/enclave boundary crossings (TEE only).
    """

    macs: int
    data_bytes: int
    interactive_depth: int = 1
    transitions: int = 2

    def __post_init__(self) -> None:
        if min(self.macs, self.data_bytes) < 0 or self.interactive_depth < 1:
            raise ValueError("workload profile fields out of range")


@dataclass(frozen=True)
class NetworkProfile:
    """Link characteristics between SMC parties / provider and executor."""

    latency_s: float = 0.02          # 20 ms WAN round trip
    bandwidth_bytes_per_s: float = 12_500_000.0  # 100 Mbit/s

    def transfer_time(self, num_bytes: float) -> float:
        return num_bytes / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class CostModel:
    """Per-backend latency estimation.

    Default constants (see module docstring for sources):
    ``plain_mac_rate`` 1e9 MACs/s on one core; TEE factor 1.2 with 5 us
    transitions and 3x paging beyond the EPC; SMC field ops 50x plain with
    32 bytes traffic per MAC; HE ~40 us per MAC (Paillier modmul at
    benchmark key sizes).
    """

    plain_mac_rate: float = 1e9

    tee_slowdown: float = 1.2
    tee_transition_s: float = 5e-6
    tee_epc_bytes: int = 92 * 1024 * 1024
    tee_paging_factor: float = 3.0
    tee_attestation_s: float = 0.05

    smc_compute_factor: float = 50.0
    smc_bytes_per_mac: float = 32.0
    smc_parties: int = 3

    he_seconds_per_mac: float = 4e-5
    he_encrypt_seconds_per_value: float = 2e-4
    he_decrypt_seconds_per_value: float = 1e-4

    network: NetworkProfile = field(default_factory=NetworkProfile)

    # -- per-backend estimators ------------------------------------------------

    def plain_seconds(self, profile: WorkloadProfile) -> float:
        """Baseline: pure compute time."""
        return profile.macs / self.plain_mac_rate

    def tee_seconds(self, profile: WorkloadProfile) -> float:
        """TEE: plain compute x slowdown (+paging), transitions, attestation."""
        compute = self.plain_seconds(profile) * self.tee_slowdown
        if profile.data_bytes > self.tee_epc_bytes:
            overflow_fraction = 1.0 - self.tee_epc_bytes / profile.data_bytes
            compute *= 1.0 + (self.tee_paging_factor - 1.0) * overflow_fraction
        transitions = profile.transitions * self.tee_transition_s
        return self.tee_attestation_s + compute + transitions

    def smc_seconds(self, profile: WorkloadProfile) -> float:
        """SMC: field-op compute + per-round latency + share traffic."""
        compute = self.plain_seconds(profile) * self.smc_compute_factor
        rounds = profile.interactive_depth
        round_latency = rounds * self.network.latency_s
        traffic = profile.macs * self.smc_bytes_per_mac * (self.smc_parties - 1)
        return compute + round_latency + self.network.transfer_time(traffic)

    def he_seconds(self, profile: WorkloadProfile) -> float:
        """HE: dominated by per-MAC ciphertext ops + encrypt/decrypt edges.

        Input values are encrypted once; the number of inputs is approximated
        by ``data_bytes / 8`` (one double per value).
        """
        values = max(1, profile.data_bytes // 8)
        edge = (values * self.he_encrypt_seconds_per_value
                + self.he_decrypt_seconds_per_value)
        return edge + profile.macs * self.he_seconds_per_mac

    def estimate_seconds(self, backend: ExecutionBackend,
                         profile: WorkloadProfile) -> float:
        """Estimated wall-clock latency of ``profile`` on ``backend``."""
        estimator = {
            ExecutionBackend.PLAIN: self.plain_seconds,
            ExecutionBackend.TEE: self.tee_seconds,
            ExecutionBackend.SMC: self.smc_seconds,
            ExecutionBackend.HE: self.he_seconds,
        }[backend]
        return estimator(profile)

    def overhead_factor(self, backend: ExecutionBackend,
                        profile: WorkloadProfile) -> float:
        """Slowdown of ``backend`` relative to plain execution."""
        baseline = self.plain_seconds(profile)
        if baseline == 0:
            raise ValueError("profile has zero compute; overhead undefined")
        return self.estimate_seconds(backend, profile) / baseline

    def ranking(self, profile: WorkloadProfile) -> list[ExecutionBackend]:
        """Backends ordered fastest-first for ``profile``.

        The paper's qualitative claim is PLAIN < TEE << SMC < HE for
        IoT-scale ML workloads; E3 checks this ranking holds across sizes.
        """
        return sorted(
            ExecutionBackend,
            key=lambda backend: self.estimate_seconds(backend, profile),
        )


def mlp_profile(batch: int, features: int, hidden: list[int],
                outputs: int) -> WorkloadProfile:
    """Build a :class:`WorkloadProfile` for an MLP forward pass.

    MACs are the sum of layer matrix products; interactive depth counts one
    round per layer (each nonlinearity forces an SMC round).
    """
    widths = [features] + list(hidden) + [outputs]
    macs = sum(
        batch * widths[i] * widths[i + 1] for i in range(len(widths) - 1)
    )
    data_bytes = batch * features * 8
    return WorkloadProfile(
        macs=macs,
        data_bytes=data_bytes,
        interactive_depth=len(widths) - 1,
    )
