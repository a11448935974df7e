"""Hashing primitives for the PDS2 substrate.

Ethereum uses Keccak-256; Python ships the finalized SHA3-256, which differs
only in padding.  The substrate is self-consistent (it never needs to match
mainnet digests), so ``keccak256`` here is SHA3-256.  Addresses follow the
Ethereum recipe: the last 20 bytes of the hash of the public key.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from typing import Any

from repro.utils.serialization import canonical_json_bytes

ADDRESS_BYTES = 20
DIGEST_BYTES = 32


def keccak256(data: bytes) -> bytes:
    """Hash ``data`` with the substrate's Keccak-256 stand-in (SHA3-256)."""
    return hashlib.sha3_256(data).digest()


def sha256(data: bytes) -> bytes:
    """Plain SHA-256, used to derive channel keys from wallet secrets."""
    return hashlib.sha256(data).digest()


def hash_object(value: Any) -> bytes:
    """Hash any canonically-serializable structure.

    This is the standard way the platform commits to structured payloads
    (transactions, workload specs, sensor readings): serialize canonically,
    then Keccak-256 the bytes.
    """
    return keccak256(canonical_json_bytes(value))


def hash_to_int(data: bytes, modulus: int | None = None) -> int:
    """Interpret a Keccak-256 digest of ``data`` as an integer.

    When ``modulus`` is given the result is reduced into ``[0, modulus)``,
    which is how signature schemes map message hashes into the field.
    """
    value = int.from_bytes(keccak256(data), "big")
    if modulus is not None:
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        value %= modulus
    return value


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256, used by deterministic nonce generation (RFC 6979 style)."""
    return _hmac.new(key, data, hashlib.sha256).digest()


def address_from_public_key(public_key_bytes: bytes) -> str:
    """Derive a 20-byte hex address from an encoded public key.

    Follows Ethereum: ``address = keccak256(pubkey)[-20:]``, rendered as a
    ``0x``-prefixed lowercase hex string.
    """
    digest = keccak256(public_key_bytes)
    return "0x" + digest[-ADDRESS_BYTES:].hex()


def is_address(value: Any) -> bool:
    """Return True when ``value`` looks like a substrate address."""
    if not isinstance(value, str) or not value.startswith("0x"):
        return False
    body = value[2:]
    if len(body) != 2 * ADDRESS_BYTES:
        return False
    try:
        bytes.fromhex(body)
    except ValueError:
        return False
    return value == value.lower()
