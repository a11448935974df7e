"""Exception hierarchy for the PDS2 reproduction.

Every subsystem raises exceptions derived from :class:`PDS2Error`, so callers
can catch platform failures without catching unrelated Python errors.  The
hierarchy mirrors the subsystem layout: crypto, chain, governance, tee,
storage, ml, privacy, rewards, identity and core each have a dedicated branch.
"""

from __future__ import annotations


class PDS2Error(Exception):
    """Base class for every error raised by the PDS2 platform."""


# ---------------------------------------------------------------------------
# Cryptographic substrate
# ---------------------------------------------------------------------------


class CryptoError(PDS2Error):
    """Base class for failures in the cryptographic substrate."""


class InvalidSignatureError(CryptoError):
    """A signature failed verification against the claimed public key."""


class InvalidKeyError(CryptoError):
    """A key is malformed, out of range, or inconsistent with its curve."""


class DecryptionError(CryptoError):
    """Ciphertext could not be decrypted (wrong key, tampered payload)."""


class SecretSharingError(CryptoError):
    """Secret shares are inconsistent, insufficient, or malformed."""


class MerkleProofError(CryptoError):
    """A Merkle inclusion proof does not verify against the stated root."""


# ---------------------------------------------------------------------------
# Blockchain substrate
# ---------------------------------------------------------------------------


class ChainError(PDS2Error):
    """Base class for blockchain-substrate failures."""


class InvalidTransactionError(ChainError):
    """A transaction is malformed, unsigned, or replayed (bad nonce)."""


class DuplicateTransactionError(InvalidTransactionError):
    """A transaction with this hash is already pooled or already mined."""


class UnderpricedReplacementError(InvalidTransactionError):
    """A same-nonce replacement did not raise the gas price enough."""


class InsufficientBalanceError(ChainError):
    """An account cannot cover a transfer value plus gas."""


class OutOfGasError(ChainError):
    """Contract execution exceeded the transaction gas limit."""


class ContractError(ChainError):
    """A contract call reverted.

    Mirrors Solidity's ``revert``: all state changes from the call are rolled
    back and the message explains the violated rule.
    """


class InvalidBlockError(ChainError):
    """A block fails structural or consensus validation."""


class ChainAuditError(ChainError):
    """The continuous invariant auditor found a violation (strict mode)."""


class UnknownContractError(ChainError):
    """A call targets an address with no deployed contract."""


# ---------------------------------------------------------------------------
# Governance layer
# ---------------------------------------------------------------------------


class GovernanceError(PDS2Error):
    """Base class for governance-layer rule violations."""


class CertificateError(GovernanceError):
    """A participation certificate is invalid, expired, or mis-signed."""


# ---------------------------------------------------------------------------
# Trusted execution environments
# ---------------------------------------------------------------------------


class TEEError(PDS2Error):
    """Base class for TEE failures."""


class AttestationError(TEEError):
    """An enclave quote failed remote attestation."""


class SealingError(TEEError):
    """Sealed data could not be unsealed (wrong enclave measurement)."""


class EnclaveViolationError(TEEError):
    """Code attempted an operation forbidden inside the enclave."""


# ---------------------------------------------------------------------------
# Storage subsystem
# ---------------------------------------------------------------------------


class StorageError(PDS2Error):
    """Base class for storage-subsystem failures."""


class ObjectNotFoundError(StorageError):
    """No object exists under the requested content address or key."""


class AccessDeniedError(StorageError):
    """The caller is not authorized to read the requested object."""


class IntegrityError(StorageError):
    """Stored bytes do not match their content address or checksum."""


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


class TelemetryError(PDS2Error):
    """Misuse of the telemetry layer (metric type/label conflicts,
    label-cardinality explosions, malformed exports)."""


# ---------------------------------------------------------------------------
# Machine learning / network substrate
# ---------------------------------------------------------------------------


class MLError(PDS2Error):
    """Base class for decentralized-ML failures."""


class ModelCompatibilityError(MLError):
    """Two models cannot be merged (different shapes or families)."""


class SimulationError(PDS2Error):
    """The discrete-event network simulation reached an invalid state."""


# ---------------------------------------------------------------------------
# Privacy
# ---------------------------------------------------------------------------


class PrivacyError(PDS2Error):
    """Base class for differential-privacy failures."""


class PrivacyBudgetExceededError(PrivacyError):
    """An operation would exceed the accountant's (epsilon, delta) budget."""


# ---------------------------------------------------------------------------
# Rewards
# ---------------------------------------------------------------------------


class RewardError(PDS2Error):
    """Base class for reward-scheme failures."""


# ---------------------------------------------------------------------------
# Identity / authenticity
# ---------------------------------------------------------------------------


class IdentityError(PDS2Error):
    """Base class for device-identity and data-authenticity failures."""


class AuthenticityError(IdentityError):
    """A data point failed authenticity verification (forgery, replay)."""


# ---------------------------------------------------------------------------
# Marketplace core
# ---------------------------------------------------------------------------


class MarketplaceError(PDS2Error):
    """Base class for marketplace-core failures."""


class MatchingError(MarketplaceError):
    """No valid provider/executor assignment satisfies the workload spec."""


class WorkloadSpecError(MarketplaceError):
    """A workload specification is malformed or self-contradictory."""


# ---------------------------------------------------------------------------
# Batch control plane
# ---------------------------------------------------------------------------


class ControlPlaneError(PDS2Error):
    """Base class for batch control-plane failures."""


class JobsDBError(ControlPlaneError):
    """The jobs database journal or index is malformed or inconsistent."""


class BatchError(ControlPlaneError):
    """A batch execution reached an invalid state (bad transition,
    unknown job, exhausted retry budget, operator kill)."""


# ---------------------------------------------------------------------------
# Workload lifecycle engine
# ---------------------------------------------------------------------------


class LifecycleError(MarketplaceError):
    """A workload lifecycle phase failed.

    Carries a ``snapshot`` — the session's ``record()`` at the moment of
    failure (session id, phase, workload address, participants, gas so far,
    phase bookkeeping) — so callers and
    the adversary harness can inspect exactly where a run died without
    parsing the message.  One subclass exists per lifecycle phase.
    """

    #: The lifecycle phase this error class belongs to.
    phase: str = ""

    def __init__(self, message: str, snapshot: dict | None = None):
        super().__init__(message)
        self.snapshot: dict = dict(snapshot or {})


class TransitionError(LifecycleError):
    """The engine attempted a transition the phase table does not allow."""


class DeployFailure(LifecycleError):
    """Deploying the workload contract (or validating the run) failed."""

    phase = "deploy"


class MatchFailure(LifecycleError, MatchingError):
    """Provider matching found fewer willing providers than required."""

    phase = "match"


class RegistrationFailure(LifecycleError):
    """Executor enclave launch or on-chain registration failed."""

    phase = "register_executors"


class SubmissionFailure(LifecycleError):
    """Attestation or certified data submission failed."""

    phase = "attest_and_submit"


class StartFailure(LifecycleError):
    """The consumer could not start execution."""

    phase = "start_execution"


class ExecutionFailure(LifecycleError):
    """An enclave failed while executing the workload."""

    phase = "execute"


class AggregationFailure(LifecycleError):
    """Combining enclave outputs or casting result votes failed."""

    phase = "aggregate"


class SettlementFailure(LifecycleError):
    """The contract did not reach completion, or payout collection failed."""

    phase = "settle"


class AuditFailure(LifecycleError):
    """The post-completion audit could not be produced."""

    phase = "audit"


class SessionPaused(PDS2Error):
    """A phase-boundary hook stopped the session.

    Deliberately *not* a :class:`LifecycleError`: pausing is not a phase
    failure, so it must never trigger the recovery policy or escrow
    release.  The session object stays live — ``WorkloadSession.run()``
    again continues it at its ``next_phase``.
    """


class InjectedFaultError(LifecycleError):
    """A fault injected by the resilience harness fired.

    Carries enough structure for a recovery policy to pick the right
    remedy without parsing the message: ``point`` is the named injection
    point, ``transient`` marks faults a plain retry can clear, and
    ``dead_executor`` / ``provider`` name the actor the fault took down
    (addresses, empty when not applicable).
    """

    def __init__(self, message: str, snapshot: dict | None = None, *,
                 point: str = "", transient: bool = False,
                 dead_executor: str = "", provider: str = ""):
        super().__init__(message, snapshot=snapshot)
        self.point = point
        self.transient = transient
        self.dead_executor = dead_executor
        self.provider = provider
