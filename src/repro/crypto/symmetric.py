"""Authenticated symmetric encryption for the storage subsystem.

Providers encrypt their data before handing it to any storage backend, so the
backend operator learns nothing.  The construction is encrypt-then-MAC over a
SHAKE-256 keystream:

* ``enc_key, mac_key = HKDF-like split of the master key``
* ``ciphertext = plaintext XOR SHAKE256(enc_key || nonce)``, one
  extendable-output call squeezed to the plaintext's length
* ``tag = HMAC-SHA256(mac_key, nonce || ciphertext)``, checked first

This is a standard, honest construction (a keyed XOF as stream cipher, plus
HMAC), implemented with primitives from the standard library; OpenSSL
(the ``cryptography`` package) is used only for ECDH and single-signature
checks in :mod:`repro.crypto.ecdsa`.  Keys are 32 bytes; nonces are 16
bytes and must be unique per message, which :func:`encrypt` guarantees by
drawing them from the caller's RNG and embedding them in the envelope.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

import numpy as np

from repro.crypto.hashing import hmac_sha256, sha256
from repro.errors import DecryptionError, InvalidKeyError

KEY_BYTES = 32
NONCE_BYTES = 16
TAG_BYTES = 32


def generate_key(rng: np.random.Generator) -> bytes:
    """Draw a fresh 32-byte symmetric key from the caller's RNG."""
    return rng.bytes(KEY_BYTES)


def _derive_subkeys(key: bytes) -> tuple[bytes, bytes]:
    return sha256(key + b"enc"), sha256(key + b"mac")


def _keystream(enc_key: bytes, nonce: bytes, length: int) -> bytes:
    return hashlib.shake_256(enc_key + nonce).digest(length)


def _xor_keystream(data: bytes, enc_key: bytes, nonce: bytes) -> bytes:
    """``data`` XOR the keystream, as one big-integer operation.

    Byte ``i`` of both operands sits at the same bit offset of its integer,
    so the result equals the byte-by-byte XOR.
    """
    stream = _keystream(enc_key, nonce, len(data))
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(stream, "big")).to_bytes(len(data), "big")


@dataclass(frozen=True)
class Envelope:
    """A sealed message: nonce, ciphertext and authentication tag."""

    nonce: bytes
    ciphertext: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        """Wire format: ``nonce || tag || ciphertext``."""
        return self.nonce + self.tag + self.ciphertext

    @classmethod
    def from_bytes(cls, data: bytes) -> "Envelope":
        """Parse the wire format produced by :meth:`to_bytes`."""
        if len(data) < NONCE_BYTES + TAG_BYTES:
            raise DecryptionError("envelope too short")
        return cls(
            nonce=data[:NONCE_BYTES],
            tag=data[NONCE_BYTES:NONCE_BYTES + TAG_BYTES],
            ciphertext=data[NONCE_BYTES + TAG_BYTES:],
        )


def encrypt(key: bytes, plaintext: bytes, rng: np.random.Generator) -> Envelope:
    """Encrypt and authenticate ``plaintext`` under ``key``."""
    if len(key) != KEY_BYTES:
        raise InvalidKeyError(f"key must be {KEY_BYTES} bytes")
    enc_key, mac_key = _derive_subkeys(key)
    nonce = rng.bytes(NONCE_BYTES)
    ciphertext = _xor_keystream(plaintext, enc_key, nonce)
    tag = hmac_sha256(mac_key, nonce + ciphertext)
    return Envelope(nonce=nonce, ciphertext=ciphertext, tag=tag)


def decrypt(key: bytes, envelope: Envelope) -> bytes:
    """Verify the tag and decrypt, raising :class:`DecryptionError` on tamper."""
    if len(key) != KEY_BYTES:
        raise DecryptionError(f"key must be {KEY_BYTES} bytes")
    enc_key, mac_key = _derive_subkeys(key)
    expected_tag = hmac_sha256(mac_key, envelope.nonce + envelope.ciphertext)
    if not hmac.compare_digest(expected_tag, envelope.tag):
        raise DecryptionError("authentication tag mismatch (wrong key or tampered)")
    return _xor_keystream(envelope.ciphertext, enc_key, envelope.nonce)
