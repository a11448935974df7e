"""RFC 9180 HPKE, Auth mode: the sealed channel from a provider into an enclave.

Suite DHKEM(X25519, HKDF-SHA256), HKDF-SHA256, AES-128-GCM; one message per
context (sequence number 0).  A blob is ``enc || ciphertext``, ``enc`` the
sender's 32-byte ephemeral public key, drawn from the caller's RNG so a seeded
run seals the same bytes.  Auth mode adds the sender's static key to the KEM:
:func:`open` fails unless the holder of ``sender_public``'s private half sealed
the blob.  X25519 and AES-GCM run in OpenSSL; ``cryptography``'s base-mode
``hpke.Suite`` is the tests' oracle for the labels below.
"""

from __future__ import annotations

import hashlib
import hmac

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from repro.errors import DecryptionError

MODE_BASE, MODE_AUTH = 0x00, 0x02
ENC_BYTES = 32
TAG_BYTES = 16
_KEM_SUITE = b"KEM\x00\x20"                        # DHKEM(X25519, HKDF-SHA256)
_HPKE_SUITE = b"HPKE\x00\x20\x00\x01\x00\x01"      # + HKDF-SHA256, AES-128-GCM


def _extract(suite: bytes, salt: bytes, label: bytes, ikm: bytes) -> bytes:
    return hmac.digest(salt, b"HPKE-v1" + suite + label + ikm, hashlib.sha256)


def _expand(suite: bytes, prk: bytes, label: bytes, info: bytes, length: int) -> bytes:
    """LabeledExpand for ``length`` ≤ 32: one HKDF block."""
    labeled = length.to_bytes(2, "big") + b"HPKE-v1" + suite + label + info
    return hmac.digest(prk, labeled + b"\x01", hashlib.sha256)[:length]


def _kem_secret(dh: bytes, kem_context: bytes) -> bytes:
    """The KEM's ExtractAndExpand (RFC 9180 §4.1)."""
    prk = _extract(_KEM_SUITE, b"", b"eae_prk", dh)
    return _expand(_KEM_SUITE, prk, b"shared_secret", kem_context, 32)


def _key_schedule(mode: int, shared_secret: bytes, info: bytes) -> tuple[AESGCM, bytes]:
    """The AEAD and base nonce of a context without a PSK (RFC 9180 §5.1)."""
    context = (bytes([mode]) + _extract(_HPKE_SUITE, b"", b"psk_id_hash", b"")
               + _extract(_HPKE_SUITE, b"", b"info_hash", info))
    secret = _extract(_HPKE_SUITE, shared_secret, b"secret", b"")
    key = _expand(_HPKE_SUITE, secret, b"key", context, 16)
    return AESGCM(key), _expand(_HPKE_SUITE, secret, b"base_nonce", context, 12)


def seal(recipient_public: X25519PublicKey, sender_private: X25519PrivateKey,
         plaintext: bytes, info: bytes, rng: np.random.Generator) -> bytes:
    """Seal ``plaintext`` to ``recipient_public`` as the sender; ``info``
    binds the context both sides agree on."""
    ephemeral = X25519PrivateKey.from_private_bytes(rng.bytes(32))
    enc = ephemeral.public_key().public_bytes_raw()
    dh = ephemeral.exchange(recipient_public) + sender_private.exchange(recipient_public)
    kem_context = (enc + recipient_public.public_bytes_raw()
                   + sender_private.public_key().public_bytes_raw())
    aead, nonce = _key_schedule(MODE_AUTH, _kem_secret(dh, kem_context), info)
    return enc + aead.encrypt(nonce, plaintext, None)


def open(recipient_private: X25519PrivateKey, sender_public: X25519PublicKey,
         blob: bytes, info: bytes) -> bytes:
    """Open a :func:`seal` blob; :class:`DecryptionError` on a wrong key,
    sender or ``info``, or any truncated or altered byte."""
    if len(blob) < ENC_BYTES + TAG_BYTES:
        raise DecryptionError("sealed blob too short")
    enc = blob[:ENC_BYTES]
    try:
        ephemeral = X25519PublicKey.from_public_bytes(enc)
        dh = recipient_private.exchange(ephemeral) + recipient_private.exchange(sender_public)
        kem_context = (enc + recipient_private.public_key().public_bytes_raw()
                       + sender_public.public_bytes_raw())
        aead, nonce = _key_schedule(MODE_AUTH, _kem_secret(dh, kem_context), info)
        return aead.decrypt(nonce, blob[ENC_BYTES:], None)
    except (InvalidTag, ValueError) as exc:
        raise DecryptionError("sealed blob failed authentication") from exc
