"""ECDSA and ECDH over secp256k1.

This is the signature scheme behind every account, transaction, block
seal, device and certificate in the reproduction (enclave quotes are P-256
and the channel into an enclave is X25519: :mod:`repro.tee.attestation`,
:mod:`repro.crypto.hpke`):

* key generation from an RNG or deterministic seed,
* RFC 6979-style deterministic nonces (no RNG needed at signing time, and no
  nonce-reuse catastrophes in tests),
* low-s normalization as enforced by Ethereum — now *required* on the verify
  side too, so the (r, -s) malleability twin of a signature is rejected,
* Ethereum-style address derivation from the uncompressed public key.

``k·G`` (signing, key derivation) and the batch equation, which OpenSSL
lacks, run in :mod:`repro.crypto.ec_backend`.  :func:`shared_secret` and
:meth:`PublicKey.verify` run in OpenSSL (``cryptography``) on a handle each
key builds for itself: a private key's belongs to the actor holding it.
A key also derives its own public point and address, once, and keeps them;
nothing derived from a key is shared between keys, and no verdict is kept
here: every call checks its signature.  A verdict worth remembering stays
with the actor that reached it (``AttestationService`` keeps each
platform's checked quote, ``AuthenticityVerifier`` its accepted device
certificates).

:meth:`PublicKey.verify` (OpenSSL) is the authority; :func:`batch_verify`,
the chain's block-entry path, runs the cheaper of OpenSSL checks on threads
and one bucket equation on forked workers, over the verifier's cores.
"""

from __future__ import annotations

import atexit
import os
import threading
import time as _time
from dataclasses import dataclass, field
from functools import cached_property
from multiprocessing.connection import Connection, Pipe
from queue import SimpleQueue
from typing import Optional

import numpy as np
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    Prehashed,
    encode_dss_signature,
)
from cryptography.hazmat.primitives.hashes import SHA256

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
# instruments.  The `path` label names what decided a verdict: `batch` a
# bucket equation that held (with the malformed scalars refused beside
# it), `single` an OpenSSL check.  Each verdict counts once, and each
# signature is one sample of the seconds histogram on either path.
_SIGN_TOTAL = _tm.counter(
    "pds2_crypto_sign_total", "ECDSA signatures produced"
)
_SIGN_SECONDS = _tm.histogram(
    "pds2_crypto_sign_seconds", "Wall time per ECDSA signature",
    buckets=_tm.LATENCY_BUCKETS_S,
)
_VERIFY_TOTAL = _tm.counter(
    "pds2_crypto_verify_total", "ECDSA verifications, by path and outcome",
    labelnames=("path", "outcome"),
)
_VERIFY_SECONDS = _tm.histogram(
    "pds2_crypto_verify_seconds",
    "Wall time per ECDSA verification",
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

_CURVE = ec.SECP256K1()
# The digest is computed here (keccak256 mod n); OpenSSL takes its 32 bytes
# as given.  The SHA256 only names the digest's length.
_PREHASHED = ec.ECDSA(Prehashed(SHA256()))
_ECDH = ec.ECDH()


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
    modular square root.  It is absent from the wire format, equality and
    the hash; a missing or wrong hint costs the verifier one square root
    and changes no verdict.
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
        make signatures malleable identifiers).  ``v`` must be 0 or 1: the
        verifiers read only its parity, so any other byte would decode to a
        second, unequal signature that verifies as the first.
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
        if data[64] > 1:  # only the parity of the nonce point's y
            raise InvalidSignatureError("signature v is not 0 or 1")
        return cls(r=r, s=s, v=data[64])


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

    @cached_property
    def _openssl(self) -> ec.EllipticCurvePublicKey:
        """This key's OpenSSL handle, parsed on first use."""
        return ec.EllipticCurvePublicNumbers(self.x, self.y,
                                             _CURVE).public_key()

    def __getstate__(self) -> dict:
        # The handle does not pickle and the address is derived: a copy
        # rebuilds both on use.
        return {"x": self.x, "y": self.y}

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

    @cached_property
    def address(self) -> str:
        """Ethereum-style address: last 20 bytes of keccak256(x || y),
        derived once per key (the chain asks on every signature check)."""
        return address_from_public_key(self.to_bytes()[1:])

    def verify(self, message: bytes, signature: Signature) -> bool:
        """Verify an ECDSA signature over ``keccak256(message)``.

        Returns True/False rather than raising: failure is expected for
        adversarial inputs.  Counted on ``{path="single"}``, refusals too.
        """
        return _check_each([(self, message, signature)])[0]


@dataclass(frozen=True)
class PrivateKey:
    """A secp256k1 private scalar with deterministic (RFC 6979-style) signing."""

    secret: int

    def __post_init__(self) -> None:
        if not 1 <= self.secret < N:
            raise InvalidKeyError("private key scalar out of range [1, n)")

    @cached_property
    def _openssl(self) -> ec.EllipticCurvePrivateKey:
        """This key's own OpenSSL handle, built on first use from the
        secret and the public point ``G``'s comb already derived."""
        public = self.public_key
        return ec.EllipticCurvePrivateNumbers(
            self.secret,
            ec.EllipticCurvePublicNumbers(public.x, public.y, _CURVE),
        ).private_key()

    def __getstate__(self) -> dict:
        # The handle does not pickle and the public key is derived: a copy
        # rebuilds both on use.
        return {"secret": self.secret}

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

    @cached_property
    def public_key(self) -> PublicKey:
        """The corresponding curve point ``secret * G``, read from ``G``'s
        comb once per key: wallets ask for their address (and hence public
        key) on every transaction they build."""
        point = ec_backend.scalar_mult_base(self.secret)
        assert point is not None  # secret is in [1, n): never infinity
        return PublicKey(*point)

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
            s = pow(k, -1, N) * (digest + r * self.secret) % N
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

    Both sides compute ``secret * PeerPublic`` (in OpenSSL) and hash the
    x coordinate.  No protocol step uses it any more (the enclave channel
    is :mod:`repro.crypto.hpke`); E25's ``crypto.ecdh`` layer probes it.
    """
    try:
        x = private_key._openssl.exchange(_ECDH, public_key._openssl)
    except ValueError as exc:
        raise InvalidKeyError(f"ECDH failed: {exc}") from None
    return keccak256(b"ecdh" + x)


# -- amortized batch verification --------------------------------------------
#
# A valid ECDSA signature satisfies ``R = u1·G + u2·Q`` where ``R`` is the
# nonce point the signer committed to via ``r = R.x mod n``.  Given the parity
# bit ``v`` the nonce point can be *recovered* from ``(r, v)``, which turns
# the per-signature check into a point equation; a random linear combination
# of many such equations then collapses a whole block's verification into a
# single multi-scalar multiplication, one Pippenger bucket sum:
#
#     Σ aᵢ·u1ᵢ · G  +  Σ_Q (Σ_{i: Qᵢ=Q} aᵢ·u2ᵢ) · Q  −  Σ aᵢ · Rᵢ  =  𝒪
#
# with independent 128-bit coefficients ``aᵢ`` (terms of one public key are
# folded into one full-length scalar per *sender*, not per transaction, and
# join the nonce points' buckets as two GLV halves).  A forged signature
# makes the combination miss the point at infinity except with probability
# ~2⁻¹²⁸, and because the coefficients are derived from the batch content
# (keccak), the whole check is reproducible.  A failed equation names no
# culprit: the OpenSSL checks it would have replaced decide every item.

#: Coefficient width for the random linear combination (bits of soundness).
_BATCH_COEFF_BITS = 128

# The batch rule, in ms for n signatures from k keys: checks over the cores,
# ⌈n / cores⌉ · c, or one equation over n nonce points and two GLV halves a
# key summed over the cores, a + b·(n + 2k) / cores, plus d past one core;
# c, a, b, d fit the sweep in benchmarks/results/batch_rule.txt.
_CHECK_MS = 0.67
_EQUATION_MS = (3.9, 0.178, 1.4)

#: The verifier's cores; ``_POOL`` serves the other ``_CORES − 1``: a queue
#: for their check threads, a pipe to each forked equation worker, its pid.
_CORES = len(os.sched_getaffinity(0))
_POOL: Optional[tuple[SimpleQueue, list[Connection], list[int]]] = None


def _forget_pool() -> None:
    # A forked child closes the pipes it inherited and starts its own pool.
    global _POOL
    for pipe in _POOL[1] if _POOL else ():
        pipe.close()
    _POOL = None


os.register_at_fork(after_in_child=_forget_pool)


def _start_pool() -> tuple[SimpleQueue, list[Connection], list[int]]:
    """Fork the equation workers (``multiprocessing`` gives a daemonic batch
    worker none), then the check threads, so a fork copies no thread."""
    global _POOL
    _POOL = (SimpleQueue(), [], [])
    try:
        for _ in range(_CORES - 1):
            ours, theirs = Pipe()
            _POOL[1].append(ours)  # the worker's fork closes it there
            if not (pid := os.fork()):
                try:  # sum each list of terms read, keep nothing, exit at EOF
                    while True:
                        theirs.send(
                            ec_backend.multi_scalar_mult(0, theirs.recv()))
                finally:
                    os._exit(0)
            theirs.close()
            _POOL[2].append(pid)
        for _ in range(_CORES - 1):
            threading.Thread(target=_serve, args=(_POOL[0],),
                             daemon=True).start()
    except BaseException:  # a pool with no thread would hang its caller
        _drop_pool()
        raise
    return _POOL


@atexit.register
def _drop_pool() -> None:
    """Stop the check threads; close each worker's pipe, wait for its exit."""
    global _POOL
    requests, pipes, workers = _POOL or (None, [], [])
    _POOL = None
    for pipe in pipes:
        pipe.close()
    for pid in workers:
        requests.put(None)
        os.waitpid(pid, 0)


def _equation_pays(signatures: int, keys: int) -> bool:
    """True when one bucket equation costs less than the OpenSSL checks."""
    a, b, d = _EQUATION_MS
    return (a + b * (signatures + 2 * keys) / _CORES + d * (_CORES > 1)
            < -(-signatures // _CORES) * _CHECK_MS)


def _check(handle: ec.EllipticCurvePublicKey, message: bytes,
           signature: Signature) -> bool:
    """One check on a key's handle, with no metric, so any thread may run
    it.  Low-s is *required*: high-s twins are malleable duplicates."""
    r, s = signature.r, signature.s
    if not (1 <= r < N and 1 <= s <= N // 2):
        return False
    try:
        handle.verify(signature=encode_dss_signature(r, s),
                      data=hash_to_int(message, N).to_bytes(32, "big"),
                      signature_algorithm=_PREHASHED)
    except (InvalidSignature, ValueError):
        return False
    return True


def _serve(requests: SimpleQueue) -> None:
    """A check thread: answer each ``(index, checks, replies)`` it takes,
    until it takes ``None``."""
    while request := requests.get():
        index, checks, replies = request
        try:
            replies.put((index, [_check(*check) for check in checks]))
        except BaseException as exc:  # the caller raises it
            replies.put((index, exc))


def _check_each(items: list[tuple[PublicKey, bytes, Signature]]) -> list[bool]:
    """:func:`_check` on every item in ``min(_CORES, n)`` contiguous chunks:
    the first here, the rest on the check threads.  Only this thread builds
    handles and counts; it calls C queue puts and gets, whatever the timing."""
    began = _time.perf_counter()
    checks = [(key._openssl, message, signature)
              for key, message, signature in items]
    parts = max(1, min(_CORES, len(checks)))
    bounds = [len(checks) * part // parts for part in range(parts + 1)]
    replies: SimpleQueue = SimpleQueue()
    for part in range(1, parts):
        (_POOL or _start_pool())[0].put(
            (part, checks[bounds[part]:bounds[part + 1]], replies))
    verdicts = [_check(*check) for check in checks[:bounds[1]]]
    for _, chunk in sorted(replies.get() for _ in range(1, parts)):
        if isinstance(chunk, BaseException):
            raise chunk
        verdicts += chunk
    _VERIFY_SECONDS.observe_repeated(
        (_time.perf_counter() - began) / max(len(items), 1), len(items))
    ok = sum(verdicts)
    for outcome, count in (("ok", ok), ("fail", len(verdicts) - ok)):
        if count:
            _VERIFY_TOTAL.labels(path="single", outcome=outcome).inc(count)
    return verdicts


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
    same sum, so a block from few senders carries few full-length terms.
    """
    commitment = keccak256(b"".join(
        q[0].to_bytes(32, "big") + q[1].to_bytes(32, "big")
        + r_pt[0].to_bytes(32, "big") + r_pt[1].to_bytes(32, "big")
        + u1.to_bytes(32, "big") + u2.to_bytes(32, "big")
        for u1, u2, q, r_pt in entries
    ))
    base_scalar = 0
    key_scalars: dict[_Point, int] = {}
    nonce_terms: list[tuple[int, _Point]] = []
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
        # term joins the buckets whole, not as the two GLV halves of N − aᵢ.
        nonce_terms.append((coeff, (r_pt[0], P - r_pt[1])))
    return _equation_sum(
        base_scalar, [(k, q) for q, k in key_scalars.items()] + nonce_terms
    ) is None


def _equation_sum(base_scalar: int,
                  terms: list[tuple[int, _Point]]) -> _Point:
    """``base_scalar · G + Σ kᵢ · Qᵢ`` over the verifier's cores: every
    ``parts``-th term in one of ``min(_CORES, len(terms))`` parts (so the
    key terms spread evenly), the first summed here with ``G``'s term, each
    other by a worker; one caller at a time, the verifier's thread.  If a
    worker is gone, the pool goes and this thread sums all."""
    parts = min(_CORES, len(terms))
    if parts < 2:
        return ec_backend.multi_scalar_mult(base_scalar, terms)
    try:
        pipes = (_POOL or _start_pool())[1]
        for part in range(1, parts):
            pipes[part % len(pipes)].send(terms[part::parts])
        total = ec_backend.multi_scalar_mult(base_scalar, terms[::parts])
        for part in range(1, parts):
            [total] = ec_backend.batch_add([total],
                                           [pipes[part % len(pipes)].recv()])
    except BaseException as exc:
        _drop_pool()  # no later call may read a sum still in flight
        if not isinstance(exc, (EOFError, OSError)):
            raise
        return ec_backend.multi_scalar_mult(base_scalar, terms)
    return total


def batch_verify(
    items: list[tuple[PublicKey, bytes, Signature]],
) -> list[bool]:
    """Verify many ``(public_key, message, signature)`` triples at once.

    One cost rule (:func:`_equation_pays`, priced on the well-formed
    items) picks OpenSSL checks over the cores or one bucket equation over
    every well-formed item, which agrees with them on every input.  When
    that equation holds it decides the batch: each well-formed item
    passes, each malformed scalar fails.  In every other case (the rule
    picks the checks, a nonce point ``(r, v)`` names no curve point, or
    the equation fails) :func:`_check_each` decides every item.
    """
    began = _time.perf_counter()
    formed = [1 <= signature.r < N and 1 <= signature.s <= N // 2
              for _, _, signature in items]
    live = [item for item, ok in zip(items, formed) if ok]
    if not live or not _equation_pays(len(live),
                                      len({key for key, _, _ in live})):
        return _check_each(items)
    entries = []  # (z, r, Q, R)
    for public_key, message, signature in live:
        nonce_point = _recover_nonce_point(signature.r, signature.v,
                                           signature.nonce_y)
        if nonce_point is None:
            return _check_each(items)
        entries.append((hash_to_int(message, N), signature.r,
                        (public_key.x, public_key.y), nonce_point))
    # Every s here passed the range check above, so none is zero mod n and
    # the whole batch shares one inversion.
    s_inverses = ec_backend.batch_inverse([signature.s
                                           for _, _, signature in live], N)
    if not _batch_equation_holds([
        (digest * s_inv % N, r * s_inv % N, q, nonce_point)
        for (digest, r, q, nonce_point), s_inv in zip(entries, s_inverses)
    ]):
        return _check_each(items)
    _VERIFY_SECONDS.observe_repeated(
        (_time.perf_counter() - began) / len(items), len(items))
    for outcome, count in (("ok", len(live)),
                           ("fail", len(items) - len(live))):
        if count:
            _VERIFY_TOTAL.labels(path="batch", outcome=outcome).inc(count)
    return formed
