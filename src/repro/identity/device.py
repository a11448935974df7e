"""IoT device identities and signed sensor readings (paper Section IV-B).

"Data should be signed directly by the device to minimize the risk of
forgery, and include timestamps to prevent the user from creating multiple
copies and reselling them."  This module implements that chain of trust:

* a :class:`Manufacturer` holds a signing key and "burns" a per-serial
  device key into each unit, publishing a :class:`DeviceCertificate`
  (manufacturer signature over the device public key + serial);
* an :class:`IoTDevice` emits :class:`SignedReading` objects — payload,
  monotone timestamp and sequence number, signed by the device key;
* the certificate doubles as the paper's "seal of quality": a verifier
  accepts a reading only under a certificate a registered manufacturer
  signed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.crypto.ecdsa import PrivateKey, PublicKey, Signature
from repro.errors import AuthenticityError, IdentityError
from repro.utils.serialization import canonical_json_bytes


@dataclass(frozen=True)
class DeviceCertificate:
    """The manufacturer's endorsement of one device key."""

    manufacturer_id: str
    serial: str
    device_public_key: PublicKey
    signature: Signature

    def signed_payload(self) -> bytes:
        return canonical_json_bytes({
            "manufacturer_id": self.manufacturer_id,
            "serial": self.serial,
            "device_public_key": self.device_public_key.to_bytes(),
        })


@dataclass(frozen=True)
class SignedReading:
    """One sensor reading as it leaves the device.

    ``sequence`` increases by one per reading and ``timestamp`` is
    non-decreasing; both are covered by the signature, so copies are
    byte-identical (detectable) and edits break the signature.
    """

    serial: str
    sequence: int
    timestamp: float
    values: dict[str, float]
    signature: Signature

    def signed_payload(self) -> bytes:
        return canonical_json_bytes({
            "serial": self.serial,
            "sequence": self.sequence,
            "timestamp": self.timestamp,
            "values": self.values,
        })


class Manufacturer:
    """A device maker: provisions device keys and issues certificates."""

    def __init__(self, manufacturer_id: str, root_secret: bytes):
        self.manufacturer_id = manufacturer_id
        self._root_secret = root_secret
        self._signing_key = PrivateKey.from_seed(root_secret + b"signing")

    @property
    def public_key(self) -> PublicKey:
        return self._signing_key.public_key

    def _device_key(self, serial: str) -> PrivateKey:
        """The key burned into the device with this serial (deterministic)."""
        return PrivateKey.from_seed(
            self._root_secret + b"device" + serial.encode("utf-8")
        )

    def issue_certificate(self, serial: str) -> DeviceCertificate:
        """Create the certificate for one serial's device key."""
        device_key = self._device_key(serial)
        payload = canonical_json_bytes({
            "manufacturer_id": self.manufacturer_id,
            "serial": serial,
            "device_public_key": device_key.public_key.to_bytes(),
        })
        return DeviceCertificate(
            manufacturer_id=self.manufacturer_id,
            serial=serial,
            device_public_key=device_key.public_key,
            signature=self._signing_key.sign(payload),
        )

    def build_device(self, serial: str) -> "IoTDevice":
        """Manufacture a device: key + certificate in one unit."""
        return IoTDevice(
            serial=serial,
            device_key=self._device_key(serial),
            certificate=self.issue_certificate(serial),
        )


@dataclass
class IoTDevice:
    """A sensor unit that signs everything it measures."""

    serial: str
    device_key: PrivateKey
    certificate: DeviceCertificate
    _sequence: int = field(default=0, repr=False)
    _last_timestamp: float = field(default=0.0, repr=False)

    def produce_reading(self, values: dict[str, float],
                        timestamp: float) -> SignedReading:
        """Measure, stamp, and sign one reading.

        Enforces the device-side invariants: the sequence is strictly
        increasing and the timestamp never goes backwards.
        """
        if timestamp < self._last_timestamp:
            raise IdentityError("device clock must not go backwards")
        payload = {
            "serial": self.serial,
            "sequence": self._sequence,
            "timestamp": timestamp,
            "values": dict(values),
        }
        signature = self.device_key.sign(canonical_json_bytes(payload))
        reading = SignedReading(
            serial=self.serial,
            sequence=self._sequence,
            timestamp=timestamp,
            values=dict(values),
            signature=signature,
        )
        self._sequence += 1
        self._last_timestamp = timestamp
        return reading


class ManufacturerRegistry:
    """The public directory of manufacturer keys."""

    def __init__(self) -> None:
        self._manufacturers: dict[str, PublicKey] = {}

    def register(self, manufacturer: Manufacturer) -> None:
        if manufacturer.manufacturer_id in self._manufacturers:
            raise IdentityError(
                f"manufacturer {manufacturer.manufacturer_id!r} exists"
            )
        self._manufacturers[manufacturer.manufacturer_id] = (
            manufacturer.public_key)

    def is_registered(self, manufacturer_id: str) -> bool:
        return manufacturer_id in self._manufacturers

    def verify_certificate(self, certificate: DeviceCertificate) -> None:
        """Check a device certificate against the manufacturer's key."""
        public_key = self._manufacturers.get(certificate.manufacturer_id)
        if public_key is None:
            raise AuthenticityError(
                "certificate from unknown manufacturer "
                f"{certificate.manufacturer_id!r}"
            )
        if not public_key.verify(certificate.signed_payload(),
                                 certificate.signature):
            raise AuthenticityError("device certificate signature invalid")
