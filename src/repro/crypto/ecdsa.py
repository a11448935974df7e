"""Pure-Python ECDSA over secp256k1.

This is the signature scheme behind every account, device, certificate and
enclave quote in the reproduction:

* key generation from an RNG or deterministic seed,
* RFC 6979-style deterministic nonces (no RNG needed at signing time, and no
  nonce-reuse catastrophes in tests),
* low-s normalization as enforced by Ethereum — now *required* on the verify
  side too, so the (r, -s) malleability twin of a signature is rejected,
* Ethereum-style address derivation from the uncompressed public key.

The point arithmetic behind signing, verification and ECDH lives in
:mod:`repro.crypto.ec_backend` (Jacobian coordinates, wNAF, fixed-base
tables, Shamir's trick, GLV on every variable-base path): scalar
multiplications that used to cost one modular inversion per point addition
now cost one inversion total.  On top of the fast math sits a small LRU
cache of verification outcomes, so chain audits that re-verify the same
seals (``verify_chain``) are near-free.

There are two verifiers and they agree on every input.
:meth:`PublicKey.verify` checks one signature and is the authority;
:func:`batch_verify` checks many in one key-folded multi-scalar equation —
the chain's block-entry path — and bisects down to ``PublicKey.verify`` on
any failure.
"""

from __future__ import annotations

import time as _time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.crypto import ec_backend
from repro.crypto.hashing import (
    address_from_public_key,
    hash_to_int,
    hmac_sha256,
    keccak256,
)
from repro.errors import InvalidKeyError, InvalidSignatureError
from repro.telemetry import metrics as _tm

# Crypto telemetry: every sign/verify batch the chain and TEE layers issue
# shows up here, so perf PRs can prove their win from the system's own
# instruments.  The `cached` label separates real curve work from LRU hits.
_SIGN_TOTAL = _tm.counter(
    "pds2_crypto_sign_total", "ECDSA signatures produced"
)
_SIGN_SECONDS = _tm.histogram(
    "pds2_crypto_sign_seconds", "Wall time per ECDSA signature",
    buckets=_tm.LATENCY_BUCKETS_S,
)
_VERIFY_TOTAL = _tm.counter(
    "pds2_crypto_verify_total", "ECDSA verifications, by path and outcome",
    labelnames=("cached", "outcome"),
)
_VERIFY_SECONDS = _tm.histogram(
    "pds2_crypto_verify_seconds",
    "Wall time per uncached ECDSA verification",
    buckets=_tm.LATENCY_BUCKETS_S,
)

# secp256k1 domain parameters (y^2 = x^3 + 7 over F_p).
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
A = 0
B = 7
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

_Point = Optional[tuple[int, int]]  # None is the point at infinity.


def _inverse_mod(value: int, modulus: int) -> int:
    """Modular inverse via Python's built-in extended-Euclid pow."""
    return pow(value, -1, modulus)


def _is_on_curve(point: _Point) -> bool:
    if point is None:
        return True
    x, y = point
    return (y * y - (x * x * x + A * x + B)) % P == 0


@dataclass(frozen=True)
class Signature:
    """An ECDSA signature ``(r, s)`` with a recovery-style parity bit ``v``.

    ``v`` is the parity of the nonce point's y coordinate: together with
    ``r`` it names that point, which is what lets :func:`batch_verify` turn
    a signature into a point equation.  :meth:`PublicKey.verify` checks
    against an explicit public key and ignores it.

    ``nonce_y`` is an unsigned *hint*, not part of the signature: the signer
    computed the nonce point and may leave its y coordinate here so a batch
    verifier can confirm it with the curve equation instead of taking a
    modular square root.  It is absent from the wire format, equality, the
    hash and every cache key; a missing or wrong hint costs the verifier one
    square root and changes no verdict.
    """

    r: int
    s: int
    v: int
    nonce_y: Optional[int] = field(default=None, compare=False, repr=False)

    def to_bytes(self) -> bytes:
        """Serialize as 65 bytes: ``r (32) || s (32) || v (1)``."""
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big") + bytes([self.v])

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        """Parse the 65-byte wire format produced by :meth:`to_bytes`.

        Malformed scalars are rejected at the decoding boundary, before any
        EC math can run on them: ``r`` and ``s`` must lie in ``[1, n-1]``
        and ``s`` must be in the low half of the range (the high-s twin of
        a valid signature also verifies under textbook ECDSA, which would
        make signatures malleable identifiers).
        """
        if len(data) != 65:
            raise InvalidSignatureError(f"signature must be 65 bytes, got {len(data)}")
        r = int.from_bytes(data[:32], "big")
        s = int.from_bytes(data[32:64], "big")
        if not 1 <= r < N:
            raise InvalidSignatureError("signature r out of range [1, n-1]")
        if not 1 <= s < N:
            raise InvalidSignatureError("signature s out of range [1, n-1]")
        if s > N // 2:
            raise InvalidSignatureError("signature s is not low-s normalized")
        return cls(r=r, s=s, v=data[64])


# Verification outcomes, keyed by (pubkey x, pubkey y, digest, r, s).  Chain
# audits re-verify the same seals and transaction signatures over and over;
# the outcome is deterministic, so replays cost a dict lookup.
_VERIFY_CACHE: OrderedDict[tuple[int, int, int, int, int], bool] = OrderedDict()
_VERIFY_CACHE_MAX = 8192


@lru_cache(maxsize=4096)
def _cached_address(x: int, y: int) -> str:
    """Address derivation is hash + hex; cached because the chain layer asks
    for the same key's address on every signature check."""
    return address_from_public_key(
        x.to_bytes(32, "big") + y.to_bytes(32, "big")
    )


@dataclass(frozen=True)
class PublicKey:
    """A point on secp256k1, plus Ethereum-style address derivation."""

    x: int
    y: int

    def __post_init__(self) -> None:
        # Canonical coordinates only: x + p names the same point but would
        # serialize differently and derive a different address.
        if not (0 <= self.x < P and 0 <= self.y < P):
            raise InvalidKeyError("public key coordinate out of range [0, p)")
        if not _is_on_curve((self.x, self.y)):
            raise InvalidKeyError("public key is not a point on secp256k1")

    def to_bytes(self) -> bytes:
        """Uncompressed SEC1 encoding: ``0x04 || x (32) || y (32)``."""
        return b"\x04" + self.x.to_bytes(32, "big") + self.y.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        """Parse the uncompressed SEC1 encoding."""
        if len(data) != 65 or data[0] != 0x04:
            raise InvalidKeyError("expected 65-byte uncompressed public key")
        return cls(
            x=int.from_bytes(data[1:33], "big"), y=int.from_bytes(data[33:65], "big")
        )

    @property
    def address(self) -> str:
        """Ethereum-style address: last 20 bytes of keccak256(x || y)."""
        return _cached_address(self.x, self.y)

    def verify(self, message: bytes, signature: Signature) -> bool:
        """Verify an ECDSA signature over ``keccak256(message)``.

        Returns True/False rather than raising, because verification failure
        is an expected condition for adversarial inputs.

        Scalars are range-checked and low-s is *required* before any EC math
        runs (high-s twins are malleable duplicates, see
        :meth:`Signature.from_bytes`).  Outcomes are LRU-cached keyed by
        ``(pubkey, digest, r, s)``, so audit replays of already-seen
        signatures (``Blockchain.verify_chain``) skip the curve entirely.
        """
        r, s = signature.r, signature.s
        if not (1 <= r < N and 1 <= s < N):
            return False
        if s > N // 2:
            return False
        digest = hash_to_int(message, N)
        cache_key = (self.x, self.y, digest, r, s)
        cached = _VERIFY_CACHE.get(cache_key)
        if cached is not None:
            _VERIFY_CACHE.move_to_end(cache_key)
            _VERIFY_TOTAL.labels(
                cached="yes", outcome="ok" if cached else "fail"
            ).inc()
            return cached
        began = _time.perf_counter()
        s_inv = _inverse_mod(s, N)
        u1 = digest * s_inv % N
        u2 = r * s_inv % N
        point = ec_backend.double_scalar_mult_base(u1, u2, (self.x, self.y))
        ok = point is not None and point[0] % N == r
        _VERIFY_SECONDS.observe(_time.perf_counter() - began)
        _VERIFY_TOTAL.labels(cached="no",
                             outcome="ok" if ok else "fail").inc()
        _VERIFY_CACHE[cache_key] = ok
        if len(_VERIFY_CACHE) > _VERIFY_CACHE_MAX:
            _VERIFY_CACHE.popitem(last=False)
        return ok


@lru_cache(maxsize=2048)
def _derive_public_key(secret: int) -> PublicKey:
    """``secret · G`` via the fixed-base table, cached per scalar.

    Wallets ask for their address (and hence public key) on every
    transaction they build; deriving it once per key instead of once per
    call removes a full scalar multiplication from the hot path.
    """
    point = ec_backend.scalar_mult_base(secret)
    assert point is not None  # secret is in [1, n) so this cannot be infinity
    return PublicKey(*point)


@dataclass(frozen=True)
class PrivateKey:
    """A secp256k1 private scalar with deterministic (RFC 6979-style) signing."""

    secret: int

    def __post_init__(self) -> None:
        if not 1 <= self.secret < N:
            raise InvalidKeyError("private key scalar out of range [1, n)")

    @classmethod
    def generate(cls, rng: np.random.Generator) -> "PrivateKey":
        """Generate a key from an explicit RNG (deterministic under a seed)."""
        while True:
            candidate = int.from_bytes(rng.bytes(32), "big")
            if 1 <= candidate < N:
                return cls(candidate)

    @classmethod
    def from_seed(cls, seed: bytes) -> "PrivateKey":
        """Derive a key deterministically by hashing ``seed`` into the field.

        Used for device identities ("burned-in" manufacturer keys) where the
        key must be a pure function of the device serial.
        """
        counter = 0
        while True:
            candidate = int.from_bytes(
                keccak256(seed + counter.to_bytes(4, "big")), "big"
            )
            if 1 <= candidate < N:
                return cls(candidate)
            counter += 1

    @property
    def public_key(self) -> PublicKey:
        """The corresponding curve point ``secret * G`` (computed once)."""
        return _derive_public_key(self.secret)

    @property
    def address(self) -> str:
        """Address of the derived public key."""
        return self.public_key.address

    def _deterministic_nonce(self, digest: int, attempt: int) -> int:
        """Derive a per-message nonce via HMAC chaining (RFC 6979 in spirit)."""
        key = self.secret.to_bytes(32, "big")
        data = digest.to_bytes(32, "big") + attempt.to_bytes(4, "big")
        counter = 0
        while True:
            material = hmac_sha256(key, data + counter.to_bytes(4, "big"))
            nonce = int.from_bytes(material, "big")
            if 1 <= nonce < N:
                return nonce
            counter += 1

    def sign(self, message: bytes) -> Signature:
        """Sign ``keccak256(message)``, producing a low-s signature."""
        began = _time.perf_counter()
        digest = hash_to_int(message, N)
        attempt = 0
        while True:
            k = self._deterministic_nonce(digest, attempt)
            point = ec_backend.scalar_mult_base(k)
            assert point is not None
            r = point[0] % N
            if r == 0:
                attempt += 1
                continue
            s = _inverse_mod(k, N) * (digest + r * self.secret) % N
            if s == 0:
                attempt += 1
                continue
            nonce_y = point[1]
            if s > N // 2:  # enforce low-s: −s signs for the point −R
                s = N - s
                nonce_y = P - nonce_y
            _SIGN_TOTAL.inc()
            _SIGN_SECONDS.observe(_time.perf_counter() - began)
            # The hint names (r, nonce_y); when R.x ≥ n (probability
            # ~2⁻¹²⁸) that is not the nonce point, so none is given.
            return Signature(r=r, s=s, v=nonce_y & 1,
                             nonce_y=nonce_y if point[0] < N else None)


def shared_secret(private_key: PrivateKey, public_key: PublicKey) -> bytes:
    """Static ECDH on secp256k1: derive a shared 32-byte secret.

    Both sides compute ``secret * PeerPublic`` and hash the x coordinate.
    Used to provision data keys into enclaves: the provider encrypts under
    the ECDH secret shared with the enclave's ephemeral key.
    """
    point = ec_backend.scalar_mult(
        private_key.secret, (public_key.x, public_key.y)
    )
    if point is None:
        raise InvalidKeyError("ECDH produced the point at infinity")
    return keccak256(b"ecdh" + point[0].to_bytes(32, "big"))


# -- amortized batch verification --------------------------------------------
#
# A valid ECDSA signature satisfies ``R = u1·G + u2·Q`` where ``R`` is the
# nonce point the signer committed to via ``r = R.x mod n``.  Given the parity
# bit ``v`` the nonce point can be *recovered* from ``(r, v)``, which turns
# the per-signature check into a point equation; a random linear combination
# of many such equations then collapses a whole block's verification into a
# single multi-scalar multiplication (Shamir's trick at batch width):
#
#     Σ aᵢ·u1ᵢ · G  +  Σ_Q (Σ_{i: Qᵢ=Q} aᵢ·u2ᵢ) · Q  −  Σ aᵢ · Rᵢ  =  𝒪
#
# with independent 128-bit coefficients ``aᵢ`` (terms of one public key are
# folded into a single scalar, so a block costs one full-length stream pair
# per *sender*, not per transaction).  A forged signature makes the
# combination miss the point at infinity except with probability ~2⁻¹²⁸, and
# because the coefficients are derived deterministically from the batch
# content (keccak), the whole check is reproducible.  On failure the batch is
# bisected to isolate the culprits; singletons fall back to the individual
# :meth:`PublicKey.verify`, which remains the authoritative oracle.

#: Coefficient width for the random linear combination (bits of soundness).
_BATCH_COEFF_BITS = 128


def _recover_nonce_point(r: int, v: int,
                         hint: Optional[int] = None) -> _Point:
    """Recover the signer's nonce point from ``(r, v)``.

    ``r`` is ``R.x mod n``; since ``n < p`` the x coordinate is ``r`` or
    (with probability ~2⁻¹²⁸) ``r + n``.  ``v`` picks the y parity.  Returns
    None when neither candidate is a curve x-coordinate — no valid signature
    can exist for such an ``r``, but callers still route that case through
    the individual oracle rather than deciding here.

    ``hint`` is the signer's claim for y (:attr:`Signature.nonce_y`).  It is
    taken only when it is a field element of parity ``v`` with
    ``hint² = r³ + 7`` — and then ``(r, hint)`` *is* the point the square
    root below would return: ``r³ + 7`` is a residue, so the loop stops at
    ``x = r``, and of its two roots only one has parity ``v``.  Any other
    hint is ignored.
    """
    if (hint is not None and 0 < hint < P and (hint & 1) == (v & 1)
            and hint * hint % P == (r * r * r + B) % P):
        return (r, hint)
    for x in (r, r + N):
        if x >= P:
            continue
        rhs = (x * x * x + B) % P
        y = pow(rhs, (P + 1) // 4, P)  # works because P ≡ 3 (mod 4)
        if y * y % P != rhs:
            continue
        if (y & 1) != (v & 1):
            y = P - y
        return (x, y)
    return None


def _batch_equation_holds(entries: list[tuple[int, int, _Point, _Point]]) -> bool:
    """Evaluate the random-linear-combination equation over ``entries``.

    Each entry is ``(u1, u2, Q, R)``.  Coefficients are 128-bit values
    derived from a keccak commitment to the whole sub-batch, so a signer
    cannot grind a signature against coefficients chosen before seeing it.
    Entries that share a public key share one term, ``(Σ aᵢ·u2ᵢ)·Q`` — the
    same sum, so a block from few senders carries few full-length streams.
    """
    commitment = keccak256(b"".join(
        q[0].to_bytes(32, "big") + q[1].to_bytes(32, "big")
        + r_pt[0].to_bytes(32, "big") + r_pt[1].to_bytes(32, "big")
        + u1.to_bytes(32, "big") + u2.to_bytes(32, "big")
        for u1, u2, q, r_pt in entries
    ))
    base_scalar = 0
    key_scalars: dict[_Point, int] = {}
    nonce_pairs: list[tuple[int, _Point]] = []
    for index, (u1, u2, q, r_pt) in enumerate(entries):
        coeff = int.from_bytes(
            keccak256(commitment + index.to_bytes(4, "big"))[
                :_BATCH_COEFF_BITS // 8
            ],
            "big",
        ) | 1  # force odd so no coefficient degenerates to zero
        base_scalar = (base_scalar + coeff * u1) % N
        key_scalars[q] = (key_scalars.get(q, 0) + coeff * u2) % N
        # −aᵢ·Rᵢ as aᵢ·(−Rᵢ): the coefficient stays 128 bits, so the R
        # stream needs no GLV split — half the additions of an N − aᵢ run.
        nonce_pairs.append((coeff, (r_pt[0], P - r_pt[1])))
    return ec_backend.multi_scalar_mult(
        base_scalar, [(k, q) for q, k in key_scalars.items()], nonce_pairs
    ) is None


def batch_verify(
    items: list[tuple[PublicKey, bytes, Signature]],
    stats: Optional[dict] = None,
) -> list[bool]:
    """Verify many ``(public_key, message, signature)`` triples at once.

    Agrees with :meth:`PublicKey.verify` on every input — same range and
    low-s policy, same LRU cache (hits are honored, outcomes are written
    back) — but amortizes the curve work across the batch: one multi-scalar
    multiplication when every signature is good, O(log n) sub-batch checks
    plus individual verifies to isolate the bad ones otherwise.  Items whose
    nonce point cannot be recovered from ``(r, v)`` (corrupted parity bit,
    non-residue x) are verified individually; the individual path is always
    the authoritative oracle.

    When a ``stats`` dict is passed it is filled with bisection telemetry:
    ``batched`` (items entering the multi-scalar path), ``singles`` (items
    routed to the individual oracle), ``subchecks`` (batch equations
    evaluated) and ``depth`` (deepest bisection level; 0 when the first
    equation held).
    """
    if len(items) == 1:  # nothing to amortize, no nonce point to recover
        public_key, message, signature = items[0]
        if stats is not None:
            stats.update(batched=0, singles=1, subchecks=0, depth=0)
        return [public_key.verify(message, signature)]
    verdicts: list[Optional[bool]] = [None] * len(items)
    singles: list[int] = []
    pending: list[tuple[int, int, int, _Point, _Point]] = []  # (idx, z, r, Q, R)
    pending_s: list[int] = []
    cache_keys: list[Optional[tuple[int, int, int, int, int]]] = [None] * len(items)
    for index, (public_key, message, signature) in enumerate(items):
        r, s = signature.r, signature.s
        if not (1 <= r < N and 1 <= s < N) or s > N // 2:
            verdicts[index] = False
            _VERIFY_TOTAL.labels(cached="no", outcome="fail").inc()
            continue
        digest = hash_to_int(message, N)
        cache_key = (public_key.x, public_key.y, digest, r, s)
        cached = _VERIFY_CACHE.get(cache_key)
        if cached is not None:
            _VERIFY_CACHE.move_to_end(cache_key)
            _VERIFY_TOTAL.labels(
                cached="yes", outcome="ok" if cached else "fail"
            ).inc()
            verdicts[index] = cached
            continue
        cache_keys[index] = cache_key
        nonce_point = _recover_nonce_point(r, signature.v, signature.nonce_y)
        if nonce_point is None:
            singles.append(index)
            continue
        pending.append((index, digest, r, (public_key.x, public_key.y),
                        nonce_point))
        pending_s.append(s)
    # Every s here passed the range check above, so none is zero mod n and
    # the whole batch shares one inversion.
    batch = [  # (idx, u1, u2, Q, R)
        (index, digest * s_inv % N, r * s_inv % N, q, nonce_point)
        for (index, digest, r, q, nonce_point), s_inv
        in zip(pending, ec_backend.batch_inverse(pending_s, N))
    ]

    began = _time.perf_counter()
    subchecks = 0
    max_depth = 0

    def resolve(entries: list[tuple[int, int, int, _Point, _Point]],
                depth: int = 0) -> None:
        nonlocal subchecks, max_depth
        if not entries:
            return
        if len(entries) == 1:
            singles.append(entries[0][0])
            return
        subchecks += 1
        max_depth = max(max_depth, depth)
        if _batch_equation_holds([entry[1:] for entry in entries]):
            for entry in entries:
                verdicts[entry[0]] = True
            return
        mid = len(entries) // 2
        resolve(entries[:mid], depth + 1)
        resolve(entries[mid:], depth + 1)

    resolve(batch)
    if batch:
        _VERIFY_SECONDS.observe(_time.perf_counter() - began)
    for index, verdict in enumerate(verdicts):
        if verdict and cache_keys[index] is not None:
            _VERIFY_TOTAL.labels(cached="batch", outcome="ok").inc()
            _VERIFY_CACHE[cache_keys[index]] = True
            if len(_VERIFY_CACHE) > _VERIFY_CACHE_MAX:
                _VERIFY_CACHE.popitem(last=False)
    for index in singles:
        public_key, message, signature = items[index]
        verdicts[index] = public_key.verify(message, signature)
    if stats is not None:
        stats.update(batched=len(batch), singles=len(singles),
                     subchecks=subchecks, depth=max_depth)
    return [bool(verdict) for verdict in verdicts]
