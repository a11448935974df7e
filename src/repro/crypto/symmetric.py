"""Authenticated symmetric encryption for the storage subsystem.

Providers encrypt their data before handing it to any storage backend, so the
backend operator learns nothing.  The construction is AES-256-GCM, run in
OpenSSL through the ``cryptography`` package: one call encrypts and
authenticates, and one call checks the 16-byte tag before anything is
decrypted.  Keys are 32 bytes; nonces are 16 bytes (GCM hashes a nonce of
any length into its counter block) and must be unique per message, which
:func:`encrypt` guarantees by drawing them from the caller's RNG and
embedding them in the envelope.  The provider → enclave channel is
:mod:`repro.crypto.hpke`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from repro.errors import DecryptionError, InvalidKeyError

KEY_BYTES = 32
NONCE_BYTES = 16
TAG_BYTES = 16


def generate_key(rng: np.random.Generator) -> bytes:
    """Draw a fresh 32-byte symmetric key from the caller's RNG."""
    return rng.bytes(KEY_BYTES)


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
    nonce = rng.bytes(NONCE_BYTES)
    sealed = AESGCM(key).encrypt(nonce, plaintext, None)
    return Envelope(nonce=nonce, ciphertext=sealed[:-TAG_BYTES],
                    tag=sealed[-TAG_BYTES:])


def decrypt(key: bytes, envelope: Envelope) -> bytes:
    """Verify the tag and decrypt, raising :class:`DecryptionError` on tamper."""
    if len(key) != KEY_BYTES:
        raise DecryptionError(f"key must be {KEY_BYTES} bytes")
    try:
        return AESGCM(key).decrypt(envelope.nonce,
                                   envelope.ciphertext + envelope.tag, None)
    except (InvalidTag, ValueError) as exc:
        raise DecryptionError(
            "authentication tag mismatch (wrong key or tampered)") from exc
