"""Secret sharing: additive (n-of-n) and Shamir (t-of-n).

Two marketplace components rely on these schemes:

* the SMC baseline of experiment E3 splits inputs into *additive* shares held
  by the computing parties (``repro.crypto.smc``);
* the cloud storage backend (Section V, Zheng et al.) escrows symmetric keys
  with *Shamir* shares held by "key keeper" nodes, so no single keeper can
  decrypt user data.

Both schemes work over the prime field ``F_q`` with a 127-bit Mersenne prime
modulus — large enough for fixed-point ML payloads, small enough to stay fast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SecretSharingError

#: The field modulus: the Mersenne prime 2^127 - 1.
DEFAULT_PRIME = (1 << 127) - 1
#: Bytes of a secret that fit one field element (:func:`shamir_share_bytes`).
_CHUNK_BYTES = (DEFAULT_PRIME.bit_length() - 2) // 8


def _random_field_element(rng: np.random.Generator) -> int:
    """Sample uniformly from ``[0, q)`` using rejection over raw bytes."""
    byte_length = (DEFAULT_PRIME.bit_length() + 7) // 8
    limit = 1 << (8 * byte_length)
    threshold = limit - limit % DEFAULT_PRIME  # rejection bound for uniformity
    while True:
        value = int.from_bytes(rng.bytes(byte_length), "big")
        if value < threshold:
            return value % DEFAULT_PRIME


def encode_signed(value: int) -> int:
    """Map a signed integer into the field (wrap-around convention)."""
    if abs(value) >= DEFAULT_PRIME // 2:
        raise SecretSharingError("value magnitude exceeds field capacity")
    return value % DEFAULT_PRIME


def decode_signed(element: int) -> int:
    """Inverse of :func:`encode_signed`."""
    element %= DEFAULT_PRIME
    if element > DEFAULT_PRIME // 2:
        return element - DEFAULT_PRIME
    return element


# ---------------------------------------------------------------------------
# Additive (n-of-n) sharing
# ---------------------------------------------------------------------------


def additive_share(secret: int, parties: int,
                   rng: np.random.Generator) -> list[int]:
    """Split ``secret`` into ``parties`` additive shares summing to it mod q.

    All but the last share are uniform; the last absorbs the difference.  Any
    strict subset of shares is information-theoretically independent of the
    secret.
    """
    if parties < 2:
        raise SecretSharingError("additive sharing needs at least 2 parties")
    encoded = encode_signed(secret)
    shares = [_random_field_element(rng) for _ in range(parties - 1)]
    last = (encoded - sum(shares)) % DEFAULT_PRIME
    shares.append(last)
    return shares


def additive_reconstruct(shares: list[int]) -> int:
    """Recombine additive shares into the signed secret."""
    if not shares:
        raise SecretSharingError("cannot reconstruct from zero shares")
    return decode_signed(sum(shares))


# ---------------------------------------------------------------------------
# Shamir (t-of-n) sharing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShamirShare:
    """One evaluation point ``(x, y)`` of the sharing polynomial."""

    x: int
    y: int


def shamir_share(secret: int, threshold: int, parties: int,
                 rng: np.random.Generator) -> list[ShamirShare]:
    """Split ``secret`` so any ``threshold`` of ``parties`` shares recover it.

    A random polynomial of degree ``threshold - 1`` with constant term equal
    to the secret is evaluated at x = 1..parties.
    """
    if not 1 <= threshold <= parties:
        raise SecretSharingError("need 1 <= threshold <= parties")
    coefficients = [encode_signed(secret)] + [
        _random_field_element(rng) for _ in range(threshold - 1)
    ]

    def evaluate(x: int) -> int:
        result = 0
        for coefficient in reversed(coefficients):  # Horner's rule
            result = (result * x + coefficient) % DEFAULT_PRIME
        return result

    return [ShamirShare(x=x, y=evaluate(x)) for x in range(1, parties + 1)]


def shamir_reconstruct(shares: list[ShamirShare]) -> int:
    """Lagrange-interpolate the polynomial at 0 to recover the secret.

    Callers must supply at least ``threshold`` *distinct* shares; fewer (or
    corrupted) shares yield either an error or an incorrect value, never the
    secret — exactly the guarantee key keepers rely on.
    """
    if not shares:
        raise SecretSharingError("cannot reconstruct from zero shares")
    xs = [share.x for share in shares]
    if len(set(xs)) != len(xs):
        raise SecretSharingError("duplicate share x-coordinates")
    prime = DEFAULT_PRIME
    secret = 0
    for i, share_i in enumerate(shares):
        numerator = 1
        denominator = 1
        for j, share_j in enumerate(shares):
            if i == j:
                continue
            numerator = numerator * (-share_j.x) % prime
            denominator = denominator * (share_i.x - share_j.x) % prime
        lagrange = numerator * pow(denominator, -1, prime) % prime
        secret = (secret + share_i.y * lagrange) % prime
    return decode_signed(secret)


def shamir_share_bytes(secret: bytes, threshold: int, parties: int,
                       rng: np.random.Generator) -> list[list[ShamirShare]]:
    """Share an arbitrary byte string chunk-wise (for symmetric keys).

    The secret is split into chunks that fit the field, each shared
    independently; share ``k`` of every chunk goes to keeper ``k``.
    """
    chunks = [
        secret[offset:offset + _CHUNK_BYTES]
        for offset in range(0, len(secret), _CHUNK_BYTES)
    ] or [b""]
    per_keeper: list[list[ShamirShare]] = [[] for _ in range(parties)]
    for chunk in chunks:
        # Prefix a 0x01 byte so leading zeros in the chunk survive round-trip.
        value = int.from_bytes(b"\x01" + chunk, "big")
        for keeper_index, share in enumerate(
            shamir_share(value, threshold, parties, rng)
        ):
            per_keeper[keeper_index].append(share)
    return per_keeper


def shamir_reconstruct_bytes(keeper_shares: list[list[ShamirShare]]) -> bytes:
    """Inverse of :func:`shamir_share_bytes` given >= threshold keepers."""
    if not keeper_shares:
        raise SecretSharingError("cannot reconstruct from zero keepers")
    chunk_count = len(keeper_shares[0])
    if any(len(shares) != chunk_count for shares in keeper_shares):
        raise SecretSharingError("keepers disagree on chunk count")
    pieces = []
    for chunk_index in range(chunk_count):
        chunk_shares = [shares[chunk_index] for shares in keeper_shares]
        value = shamir_reconstruct(chunk_shares)
        if value < 0:
            raise SecretSharingError("corrupted byte-share reconstruction")
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
        if not raw or raw[0] != 0x01:
            raise SecretSharingError("byte-share padding marker missing")
        pieces.append(raw[1:])
    return b"".join(pieces)
