"""Paillier additively-homomorphic encryption.

The paper (Section III-B) dismisses homomorphic encryption as "impractical for
most applications" because of its computational overhead.  To *measure* that
claim rather than assert it, this module implements the real Paillier
cryptosystem — key generation with Miller-Rabin primes, probabilistic
encryption, and the additive homomorphisms — and the ML benchmarks run linear
scoring over Paillier ciphertexts as the HE baseline (experiment E3).

Plaintexts are signed integers; floats are handled by the fixed-point
:class:`FixedPointCodec`.  Negative values use the standard wrap-around
convention: anything above ``n // 2`` decodes as negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.errors import CryptoError, DecryptionError

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)
_MILLER_RABIN_ROUNDS = 40


def _is_probable_prime(candidate: int, rng: np.random.Generator) -> bool:
    """Miller-Rabin primality test with trial division pre-filter."""
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False
    # Write candidate - 1 = d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(_MILLER_RABIN_ROUNDS):
        witness = 2 + int(rng.integers(0, min(candidate - 4, 2**62)))
        x = pow(witness, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: np.random.Generator) -> int:
    """Generate a probable prime of exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("prime size must be at least 8 bits")
    while True:
        raw = int.from_bytes(rng.bytes((bits + 7) // 8), "big")
        candidate = raw | (1 << (bits - 1)) | 1  # force top bit and oddness
        candidate &= (1 << bits) - 1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public parameters ``(n, g)`` with ``g = n + 1`` (the standard choice)."""

    n: int

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    @property
    def g(self) -> int:
        return self.n + 1

    @property
    def max_plaintext(self) -> int:
        """Largest magnitude representable with the signed-wrap convention."""
        return self.n // 2

    def _encode_signed(self, value: int) -> int:
        if abs(value) > self.max_plaintext:
            raise CryptoError(
                f"plaintext magnitude {abs(value)} exceeds key capacity"
            )
        return value % self.n

    def encrypt(self, value: int, rng: np.random.Generator) -> "PaillierCiphertext":
        """Encrypt a signed integer with fresh randomness.

        ``c = g^m * r^n mod n^2`` where ``r`` is uniform in ``Z_n^*``.  With
        ``g = n + 1``, ``g^m = 1 + m*n mod n^2``, which saves one modexp.
        """
        m = self._encode_signed(value)
        while True:
            r = int.from_bytes(rng.bytes((self.n.bit_length() + 7) // 8), "big")
            r %= self.n
            if r > 0 and math.gcd(r, self.n) == 1:
                break
        g_m = (1 + m * self.n) % self.n_squared
        cipher = g_m * pow(r, self.n, self.n_squared) % self.n_squared
        return PaillierCiphertext(public_key=self, value=cipher)

    def encrypt_vector(self, values, rng: np.random.Generator,
                       codec: "FixedPointCodec") -> list["PaillierCiphertext"]:
        """Encrypt a float vector element-wise under fixed-point encoding."""
        return [self.encrypt(codec.encode(float(v)), rng) for v in values]


@dataclass(frozen=True)
class PaillierPrivateKey:
    """The factorization-derived trapdoor ``(lambda, mu)``.

    When the prime factors ``p`` and ``q`` are retained, decryption takes
    the CRT fast path (two half-size exponentiations instead of one
    full-size one, ~3-4x faster); otherwise it falls back to the textbook
    formula.
    """

    public_key: PaillierPublicKey
    lam: int
    mu: int
    p: int | None = None
    q: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None and self.q is not None:
            if self.p * self.q != self.public_key.n:
                raise CryptoError("CRT primes do not factor the modulus")
            # Precompute per-prime constants (stored via object.__setattr__
            # because the dataclass is frozen).
            hp = self._h_value(self.p)
            hq = self._h_value(self.q)
            object.__setattr__(self, "_hp", hp)
            object.__setattr__(self, "_hq", hq)
            object.__setattr__(
                self, "_q_inv_p", pow(self.q, -1, self.p)
            )

    def _h_value(self, prime: int) -> int:
        """``h = L_p(g^(p-1) mod p^2)^-1 mod p`` for one prime factor."""
        prime_sq = prime * prime
        u = pow(self.public_key.g, prime - 1, prime_sq)
        l_value = (u - 1) // prime
        return pow(l_value, -1, prime)

    def decrypt(self, ciphertext: "PaillierCiphertext") -> int:
        """Recover the signed plaintext of ``ciphertext``."""
        if ciphertext.public_key.n != self.public_key.n:
            raise DecryptionError("ciphertext was encrypted under a different key")
        n = self.public_key.n
        if self.p is not None and self.q is not None:
            m = self._decrypt_crt(ciphertext.value)
        else:
            n_sq = self.public_key.n_squared
            u = pow(ciphertext.value, self.lam, n_sq)
            l_value = (u - 1) // n
            m = l_value * self.mu % n
        if m > n // 2:
            m -= n
        return m

    def _decrypt_crt(self, cipher: int) -> int:
        """CRT decryption: work modulo p^2 and q^2, then recombine."""
        p, q = self.p, self.q
        mp = (pow(cipher, p - 1, p * p) - 1) // p * self._hp % p
        mq = (pow(cipher, q - 1, q * q) - 1) // q * self._hq % q
        # Garner recombination: m = mq + q * ((mp - mq) * q^-1 mod p).
        return (mq + q * ((mp - mq) * self._q_inv_p % p)) % (p * q)


@dataclass(frozen=True)
class PaillierCiphertext:
    """An element of ``Z_{n^2}^*`` supporting the additive homomorphisms.

    Supported operations mirror what a data consumer can do on encrypted
    provider data: ciphertext + ciphertext, ciphertext + plaintext, and
    ciphertext * plaintext scalar.  Ciphertext * ciphertext is (by design of
    the scheme) impossible.
    """

    public_key: PaillierPublicKey
    value: int

    def _require_same_key(self, other: "PaillierCiphertext") -> None:
        if self.public_key.n != other.public_key.n:
            raise CryptoError("cannot combine ciphertexts under different keys")

    def __add__(self, other):
        if isinstance(other, PaillierCiphertext):
            self._require_same_key(other)
            combined = self.value * other.value % self.public_key.n_squared
            return PaillierCiphertext(self.public_key, combined)
        if isinstance(other, int):
            encoded = self.public_key._encode_signed(other)
            g_m = (1 + encoded * self.public_key.n) % self.public_key.n_squared
            combined = self.value * g_m % self.public_key.n_squared
            return PaillierCiphertext(self.public_key, combined)
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        encoded = self.public_key._encode_signed(scalar)
        powered = pow(self.value, encoded, self.public_key.n_squared)
        return PaillierCiphertext(self.public_key, powered)

    __rmul__ = __mul__


@dataclass(frozen=True)
class FixedPointCodec:
    """Fixed-point encoding of floats into the Paillier plaintext space.

    ``encode(x) = round(x * 2^24)``.  A product of two encoded values
    carries twice the scaling; :meth:`decode_product` accounts for it.
    """

    scale: ClassVar[int] = 1 << 24

    def encode(self, value: float) -> int:
        if not math.isfinite(value):
            raise CryptoError("cannot fixed-point encode a non-finite value")
        return round(value * self.scale)

    def decode_product(self, encoded: int) -> float:
        """Decode a value carrying two scaling factors (plain*cipher product)."""
        return encoded / (self.scale * self.scale)


@dataclass
class PaillierKeyPair:
    """A generated key pair plus the fixed-point codec its users share."""

    public_key: PaillierPublicKey
    private_key: PaillierPrivateKey
    codec: ClassVar[FixedPointCodec] = FixedPointCodec()


def generate_keypair(bits: int, rng: np.random.Generator) -> PaillierKeyPair:
    """Generate a Paillier key pair with an RSA modulus of ``bits`` bits.

    512-bit keys are the benchmark default: far below deployment strength but
    preserving the *relative* cost of HE operations, which is what experiment
    E3 measures.
    """
    if bits < 64:
        raise ValueError("modulus must be at least 64 bits")
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p != q:
            break
    n = p * q
    lam = math.lcm(p - 1, q - 1)
    public = PaillierPublicKey(n=n)
    # mu = L(g^lambda mod n^2)^-1 mod n; with g = n+1, g^lam = 1 + lam*n.
    u = pow(public.g, lam, public.n_squared)
    l_value = (u - 1) // n
    mu = pow(l_value, -1, n)
    private = PaillierPrivateKey(public_key=public, lam=lam, mu=mu, p=p, q=q)
    return PaillierKeyPair(public_key=public, private_key=private)


def encrypted_dot(ciphertexts: list[PaillierCiphertext],
                  plain_weights: list[int]) -> PaillierCiphertext:
    """Homomorphic dot product between encrypted features and plain weights.

    This is the core of HE linear scoring: the executor holds encrypted
    inputs and cleartext (consumer-supplied) weights, and computes
    ``sum_i w_i * Enc(x_i)`` without ever seeing ``x``.
    """
    if len(ciphertexts) != len(plain_weights):
        raise CryptoError("dimension mismatch in encrypted dot product")
    if not ciphertexts:
        raise CryptoError("encrypted dot product needs at least one term")
    total = ciphertexts[0] * plain_weights[0]
    for cipher, weight in zip(ciphertexts[1:], plain_weights[1:]):
        total = total + cipher * weight
    return total
