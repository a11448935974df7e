"""Remote attestation for simulated enclaves.

Mirrors the Intel SGX EPID/DCAP flow at the protocol level:

* platforms are **provisioned**: their attestation keys are registered with
  a (decentralizable) :class:`AttestationService`;
* an enclave produces a :class:`Quote` — (measurement, report data, platform
  id) signed by the platform's P-256 key as DCAP signs (RFC 6979 nonces:
  reproducible bytes).  The report data is the enclave's raw 32-byte X25519
  key, so a verified quote authenticates the key a provider seals data to;
* verifiers call :meth:`AttestationService.verify`, which checks platform
  registration, revocation status, the signature, and (optionally) that the
  measurement is on the expected list.  Providers ask the service, as under
  EPID/IAS, rather than each checking the platform signature locally
  (DCAP): every provider routed to one enclave is shown the same quote, and
  the service checks its signature once.

In PDS2, providers refuse to send data until the executor presents a quote
whose measurement equals the workload code hash recorded on-chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PublicKey
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

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
#: Quote signatures: ECDSA-SHA256 with RFC 6979 nonces.
_SIGNING = ec.ECDSA(hashes.SHA256(), deterministic_signing=True)


def _point(public_key: ec.EllipticCurvePublicKey) -> bytes:
    """Uncompressed SEC1 encoding of a P-256 public key."""
    return public_key.public_bytes(Encoding.X962, PublicFormat.UncompressedPoint)


@dataclass(frozen=True)
class Quote:
    """A signed attestation statement about one running enclave."""

    platform_id: str
    measurement: bytes
    report_data: bytes
    platform_public_key: bytes  # uncompressed SEC1 P-256
    signature: bytes            # DER ECDSA over payload_bytes

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

    The service remembers, per provisioned platform, the last quote whose
    signature it checked (``_verified``; at most one entry per platform).
    A quote equal to it as a whole value, signature included, skips only
    the signature check: registration, revocation, the key match, the
    measurement and the report data are checked on every call, and
    revoking a platform forgets its quote.
    """

    def __init__(self) -> None:
        self._platforms: dict[str, ec.EllipticCurvePublicKey] = {}
        self._revoked: set[str] = set()
        self._verified: dict[str, Quote] = {}

    # -- provisioning ---------------------------------------------------------

    def provision_platform(self, platform: TEEPlatform) -> None:
        """Register a platform's attestation key (manufacturer step)."""
        if platform.platform_id in self._platforms:
            raise AttestationError(
                f"platform {platform.platform_id!r} already provisioned"
            )
        self._platforms[platform.platform_id] = platform.attestation_key.public_key()

    def revoke_platform(self, platform_id: str) -> None:
        """Revoke a compromised platform; its future quotes fail."""
        if platform_id not in self._platforms:
            raise AttestationError(f"unknown platform {platform_id!r}")
        self._revoked.add(platform_id)
        self._verified.pop(platform_id, None)

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
            report_data = enclave.ephemeral_public_key.public_bytes_raw()
            key = enclave.platform.attestation_key
            payload = Quote.payload_bytes(
                enclave.platform.platform_id, enclave.measurement, report_data
            )
            enclave.quote = Quote(
                platform_id=enclave.platform.platform_id,
                measurement=enclave.measurement,
                report_data=report_data,
                platform_public_key=_point(key.public_key()),
                signature=key.sign(payload, _SIGNING),
            )
            _QUOTES_PRODUCED.inc()
        return enclave.quote

    # -- verification -------------------------------------------------------------

    def verify(self, quote: Quote,
               expected_measurement: bytes | None = None) -> X25519PublicKey:
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
                        expected_measurement: bytes | None
                        ) -> X25519PublicKey:
        registered = self._platforms.get(quote.platform_id)
        if registered is None:
            raise AttestationError(f"unknown platform {quote.platform_id!r}")
        if quote.platform_id in self._revoked:
            raise AttestationError(f"platform {quote.platform_id!r} is revoked")
        if _point(registered) != quote.platform_public_key:
            raise AttestationError("quote key does not match provisioned key")
        if self._verified.get(quote.platform_id) != quote:
            payload = Quote.payload_bytes(
                quote.platform_id, quote.measurement, quote.report_data
            )
            try:
                registered.verify(quote.signature, payload, _SIGNING)
            except InvalidSignature:
                raise AttestationError("invalid quote signature") from None
            self._verified[quote.platform_id] = quote
        if (expected_measurement is not None
                and quote.measurement != expected_measurement):
            raise AttestationError(
                "enclave measurement does not match the expected workload code"
            )
        if len(quote.report_data) != 32:  # malformed: an attack signal
            raise AttestationError("quote report data is not an X25519 key")
        return X25519PublicKey.from_public_bytes(quote.report_data)
