"""Remote attestation for simulated enclaves.

Mirrors the Intel SGX EPID/DCAP flow at the protocol level:

* platforms are **provisioned**: their attestation keys are registered with
  a (decentralizable) :class:`AttestationService`;
* an enclave produces a :class:`Quote` — (measurement, report data, platform
  id) signed by the platform's attestation key.  The report data binds the
  enclave's ephemeral public key so a verified quote authenticates the key
  a provider is about to encrypt data to;
* verifiers call :meth:`AttestationService.verify`, which checks platform
  registration, revocation status, the signature, and (optionally) that the
  measurement is on the expected list.

In PDS2, providers refuse to send data until the executor presents a quote
whose measurement equals the workload code hash recorded on-chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.ecdsa import PublicKey, Signature
from repro.errors import AttestationError
from repro.tee.enclave import Enclave, TEEPlatform
from repro.telemetry import metrics as _tm
from repro.telemetry.tracing import tracer as _tracer
from repro.utils.serialization import canonical_json_bytes

_QUOTES_PRODUCED = _tm.counter(
    "pds2_tee_quotes_produced_total", "Attestation quotes produced"
)
_VERIFICATIONS = _tm.counter(
    "pds2_tee_attestations_total", "Quote verifications, by outcome",
    labelnames=("outcome",),
)


@dataclass(frozen=True)
class Quote:
    """A signed attestation statement about one running enclave."""

    platform_id: str
    measurement: bytes
    report_data: bytes
    platform_public_key: PublicKey
    signature: Signature

    @staticmethod
    def payload_bytes(platform_id: str, measurement: bytes,
                      report_data: bytes) -> bytes:
        """Canonical bytes of the fields the platform signature covers."""
        return canonical_json_bytes({
            "platform_id": platform_id,
            "measurement": measurement,
            "report_data": report_data,
        })


class AttestationService:
    """Registry of provisioned platforms plus quote verification.

    Plays the role of Intel's attestation service; in a deployment this
    could itself be a smart contract, which is why verification is pure and
    deterministic.
    """

    def __init__(self) -> None:
        self._platforms: dict[str, PublicKey] = {}
        self._revoked: set[str] = set()

    # -- provisioning ---------------------------------------------------------

    def provision_platform(self, platform: TEEPlatform) -> None:
        """Register a platform's attestation key (manufacturer step)."""
        if platform.platform_id in self._platforms:
            raise AttestationError(
                f"platform {platform.platform_id!r} already provisioned"
            )
        self._platforms[platform.platform_id] = platform.attestation_key.public_key

    def revoke_platform(self, platform_id: str) -> None:
        """Revoke a compromised platform; its future quotes fail."""
        if platform_id not in self._platforms:
            raise AttestationError(f"unknown platform {platform_id!r}")
        self._revoked.add(platform_id)

    # -- quoting ---------------------------------------------------------------

    @staticmethod
    def produce_quote(enclave: Enclave) -> Quote:
        """The quote for ``enclave``, binding its ephemeral public key.

        Signed by the *platform* attestation key, as in SGX where the
        quoting enclave signs on behalf of application enclaves.  A quote is
        a pure function of platform id, measurement and ephemeral key, so
        the enclave keeps it for its lifetime (:meth:`Enclave.terminate`
        drops it): every provider routed to one enclave is shown the same
        signed statement instead of a byte-identical re-signature.
        """
        if enclave.quote is None:
            report_data = enclave.ephemeral_public_key.to_bytes()
            payload = Quote.payload_bytes(
                enclave.platform.platform_id, enclave.measurement, report_data
            )
            enclave.quote = Quote(
                platform_id=enclave.platform.platform_id,
                measurement=enclave.measurement,
                report_data=report_data,
                platform_public_key=(
                    enclave.platform.attestation_key.public_key),
                signature=enclave.platform.attestation_key.sign(payload),
            )
            _QUOTES_PRODUCED.inc()
        return enclave.quote

    # -- verification -------------------------------------------------------------

    def verify(self, quote: Quote,
               expected_measurement: bytes | None = None) -> PublicKey:
        """Verify a quote; returns the attested enclave ephemeral public key.

        Raises :class:`AttestationError` when the platform is unknown or
        revoked, the signature is invalid, the embedded key does not match
        the registered one, or the measurement differs from
        ``expected_measurement`` (when given).
        """
        try:
            with _tracer().span("tee.attestation.verify",
                                platform=quote.platform_id):
                key = self._verify_checked(quote, expected_measurement)
        except AttestationError:
            _VERIFICATIONS.labels(outcome="fail").inc()
            raise
        _VERIFICATIONS.labels(outcome="ok").inc()
        _tracer().scope.emit("tee.attestation_verified",
                             actor=quote.platform_id,
                             data={"measurement": quote.measurement.hex()})
        return key

    def _verify_checked(self, quote: Quote,
                        expected_measurement: bytes | None) -> PublicKey:
        registered = self._platforms.get(quote.platform_id)
        if registered is None:
            raise AttestationError(f"unknown platform {quote.platform_id!r}")
        if quote.platform_id in self._revoked:
            raise AttestationError(f"platform {quote.platform_id!r} is revoked")
        if (registered.x, registered.y) != (
            quote.platform_public_key.x, quote.platform_public_key.y
        ):
            raise AttestationError("quote key does not match provisioned key")
        payload = Quote.payload_bytes(
            quote.platform_id, quote.measurement, quote.report_data
        )
        if not registered.verify(payload, quote.signature):
            raise AttestationError("invalid quote signature")
        if (expected_measurement is not None
                and quote.measurement != expected_measurement):
            raise AttestationError(
                "enclave measurement does not match the expected workload code"
            )
        try:
            return PublicKey.from_bytes(quote.report_data)
        except Exception as exc:  # malformed report data is an attack signal
            raise AttestationError("quote report data is not a public key") from exc
