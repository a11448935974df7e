"""Authenticity verification: rejecting forged, tampered and resold data.

Executors run this verifier on every reading before it enters a workload
(buyers never see the data, so the check must happen here — Section IV-B).
The verifier enforces, per reading:

1. the device certificate chains to a registered manufacturer;
2. the reading signature verifies under the certified device key;
3. the (serial, sequence) pair was never seen before (no duplicate resale);
4. per-device timestamps are non-decreasing and within the freshness window.

Attack generators (:func:`forge_reading`, :func:`tamper_reading`,
:func:`replay_reading`) produce the adversarial inputs for experiment E9.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.crypto.ecdsa import PrivateKey, batch_verify
from repro.errors import AuthenticityError
from repro.identity.device import (
    DeviceCertificate,
    IoTDevice,
    ManufacturerRegistry,
    SignedReading,
)
from repro.utils.serialization import canonical_json_bytes


class RejectionReason(enum.Enum):
    """Why a reading was refused."""

    UNKNOWN_MANUFACTURER = "unknown_manufacturer"
    BAD_CERTIFICATE = "bad_certificate"
    BAD_SIGNATURE = "bad_signature"
    DUPLICATE = "duplicate"
    TIMESTAMP_REGRESSION = "timestamp_regression"
    STALE = "stale"


@dataclass
class VerificationStats:
    """Tally of verifier decisions (precision/recall inputs for E9)."""

    accepted: int = 0
    rejected: dict[str, int] = field(default_factory=dict)

    def record_rejection(self, reason: RejectionReason) -> None:
        self.rejected[reason.value] = self.rejected.get(reason.value, 0) + 1

    @property
    def total_rejected(self) -> int:
        return sum(self.rejected.values())


class AuthenticityVerifier:
    """Stateful verifier an executor keeps for one workload."""

    def __init__(self, registry: ManufacturerRegistry,
                 freshness_window_s: float | None = None):
        self.registry = registry
        self.freshness_window_s = freshness_window_s
        self._seen: set[tuple[str, int]] = set()
        self._last_timestamp: dict[str, float] = {}
        self.stats = VerificationStats()

    def verify(self, reading: SignedReading,
               certificate: DeviceCertificate,
               now: float | None = None) -> None:
        """Accept or raise :class:`AuthenticityError` with a typed reason."""
        if certificate.serial != reading.serial:
            self._reject(RejectionReason.BAD_CERTIFICATE,
                         "certificate serial does not match the reading")
        try:
            self.registry.verify_certificate(certificate)
        except AuthenticityError:
            if not self.registry.is_registered(certificate.manufacturer_id):
                self._reject(RejectionReason.UNKNOWN_MANUFACTURER,
                             "unknown manufacturer")
            self._reject(RejectionReason.BAD_CERTIFICATE,
                         "invalid device certificate")
        if not certificate.device_public_key.verify(
            reading.signed_payload(), reading.signature
        ):
            self._reject(RejectionReason.BAD_SIGNATURE,
                         "reading signature invalid")
        key = (reading.serial, reading.sequence)
        if key in self._seen:
            self._reject(RejectionReason.DUPLICATE,
                         "reading already submitted (duplicate resale)")
        last = self._last_timestamp.get(reading.serial)
        if last is not None and reading.timestamp < last:
            self._reject(RejectionReason.TIMESTAMP_REGRESSION,
                         "timestamp older than a previously seen reading")
        if (self.freshness_window_s is not None and now is not None
                and now - reading.timestamp > self.freshness_window_s):
            self._reject(RejectionReason.STALE,
                         "reading older than the freshness window")
        self._seen.add(key)
        self._last_timestamp[reading.serial] = reading.timestamp
        self.stats.accepted += 1

    def _reject(self, reason: RejectionReason, message: str) -> None:
        self.stats.record_rejection(reason)
        raise AuthenticityError(f"{reason.value}: {message}")

    def verify_batch(self, items: list[tuple[SignedReading,
                                             DeviceCertificate]],
                     ) -> tuple[list[SignedReading], list[str]]:
        """Verify many readings; returns (accepted, rejection reasons).

        One device's readings share one key, so the signatures are checked
        up front in a single key-folded :func:`batch_verify`.  That call
        only leaves its verdicts in the verification LRU; :meth:`verify`
        below still decides every reading, in order, and finds them there.
        """
        batch_verify([
            (certificate.device_public_key, reading.signed_payload(),
             reading.signature)
            for reading, certificate in items
        ])
        accepted: list[SignedReading] = []
        reasons: list[str] = []
        for reading, certificate in items:
            try:
                self.verify(reading, certificate)
                accepted.append(reading)
            except AuthenticityError as exc:
                reasons.append(str(exc))
        return accepted, reasons


# ---------------------------------------------------------------------------
# Attack generators (for tests and experiment E9)
# ---------------------------------------------------------------------------


def forge_reading(template: SignedReading,
                  rng: np.random.Generator) -> SignedReading:
    """A forgery: plausible payload signed by a key the attacker made up."""
    attacker_key = PrivateKey.generate(rng)
    payload = {
        "serial": template.serial,
        "sequence": template.sequence + 1000,
        "timestamp": template.timestamp + 1.0,
        "values": dict(template.values),
    }
    return SignedReading(
        serial=template.serial,
        sequence=template.sequence + 1000,
        timestamp=template.timestamp + 1.0,
        values=dict(template.values),
        signature=attacker_key.sign(canonical_json_bytes(payload)),
    )


def tamper_reading(reading: SignedReading) -> SignedReading:
    """A tamper: inflate the values but keep the original signature."""
    inflated = {key: value + 5.0 for key, value in reading.values.items()}
    return SignedReading(
        serial=reading.serial,
        sequence=reading.sequence,
        timestamp=reading.timestamp,
        values=inflated,
        signature=reading.signature,
    )


def replay_reading(reading: SignedReading) -> SignedReading:
    """A resale attempt: the identical signed reading submitted again."""
    return reading


def simulate_adversarial_stream(device: IoTDevice,
                                honest_count: int,
                                attack_rate: float,
                                rng: np.random.Generator,
                                start_time: float = 0.0
                                ) -> list[tuple[SignedReading, bool]]:
    """Interleave honest readings with attacks; returns (reading, is_attack).

    Attacks rotate between forgery, tamper and replay so the verifier's
    per-reason counters all get exercised.
    """
    stream: list[tuple[SignedReading, bool]] = []
    attacks = 0
    for index in range(honest_count):
        reading = device.produce_reading(
            {"value": float(rng.normal())}, timestamp=start_time + index
        )
        stream.append((reading, False))
        if rng.random() < attack_rate:
            kind = attacks % 3
            if kind == 0:
                stream.append((forge_reading(reading, rng), True))
            elif kind == 1:
                stream.append((tamper_reading(reading), True))
            else:
                stream.append((replay_reading(reading), True))
            attacks += 1
    return stream
