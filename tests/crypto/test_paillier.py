"""Tests for the Paillier cryptosystem."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.paillier import (
    FixedPointCodec,
    encrypted_dot,
    generate_keypair,
    generate_prime,
)
from repro.errors import CryptoError, DecryptionError

KEY_BITS = 256  # small keys keep the suite fast; semantics are unchanged


@pytest.fixture(scope="module")
def keypair():
    rng = np.random.default_rng(77)
    return generate_keypair(KEY_BITS, rng)


@pytest.fixture
def enc_rng():
    return np.random.default_rng(88)


class TestPrimes:
    def test_prime_has_requested_bits(self, rng):
        prime = generate_prime(64, rng)
        assert prime.bit_length() == 64

    def test_prime_is_odd(self, rng):
        assert generate_prime(32, rng) % 2 == 1

    def test_rejects_tiny_sizes(self, rng):
        with pytest.raises(ValueError):
            generate_prime(4, rng)


class TestEncryptDecrypt:
    @pytest.mark.parametrize("value", [0, 1, -1, 12345, -99999])
    def test_round_trip(self, keypair, enc_rng, value):
        cipher = keypair.public_key.encrypt(value, enc_rng)
        assert keypair.private_key.decrypt(cipher) == value

    def test_probabilistic_encryption(self, keypair, enc_rng):
        a = keypair.public_key.encrypt(42, enc_rng)
        b = keypair.public_key.encrypt(42, enc_rng)
        assert a.value != b.value  # fresh randomness
        assert keypair.private_key.decrypt(a) == keypair.private_key.decrypt(b)

    def test_plaintext_capacity_enforced(self, keypair, enc_rng):
        with pytest.raises(CryptoError):
            keypair.public_key.encrypt(keypair.public_key.n, enc_rng)

    def test_cross_key_decryption_rejected(self, keypair, enc_rng):
        other = generate_keypair(KEY_BITS, np.random.default_rng(5))
        cipher = keypair.public_key.encrypt(7, enc_rng)
        with pytest.raises(DecryptionError):
            other.private_key.decrypt(cipher)


class TestHomomorphisms:
    def test_ciphertext_addition(self, keypair, enc_rng):
        a = keypair.public_key.encrypt(30, enc_rng)
        b = keypair.public_key.encrypt(12, enc_rng)
        assert keypair.private_key.decrypt(a + b) == 42

    def test_plaintext_addition(self, keypair, enc_rng):
        a = keypair.public_key.encrypt(30, enc_rng)
        assert keypair.private_key.decrypt(a + 12) == 42
        assert keypair.private_key.decrypt(12 + a) == 42

    def test_scalar_multiplication(self, keypair, enc_rng):
        a = keypair.public_key.encrypt(-7, enc_rng)
        assert keypair.private_key.decrypt(a * 6) == -42

    def test_cross_key_combination_rejected(self, keypair, enc_rng):
        other = generate_keypair(KEY_BITS, np.random.default_rng(6))
        a = keypair.public_key.encrypt(1, enc_rng)
        b = other.public_key.encrypt(1, enc_rng)
        with pytest.raises(CryptoError):
            _ = a + b

    @settings(max_examples=15, deadline=None)
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_additive_homomorphism_property(self, x, y):
        rng = np.random.default_rng(abs(x) + abs(y) + 1)
        keypair = generate_keypair(128, rng)
        cx = keypair.public_key.encrypt(x, rng)
        cy = keypair.public_key.encrypt(y, rng)
        assert keypair.private_key.decrypt(cx + cy) == x + y


class TestFixedPoint:
    def test_encode_decode(self):
        codec = FixedPointCodec()
        assert codec.encode(1.5) == 3 << 23
        assert codec.encode(-0.25) == -(1 << 22)

    def test_product_scaling(self):
        codec = FixedPointCodec()
        product = codec.encode(1.5) * codec.encode(2.0)
        assert codec.decode_product(product) == pytest.approx(3.0)

    def test_rejects_nan(self):
        with pytest.raises(CryptoError):
            FixedPointCodec().encode(float("nan"))


class TestEncryptedDot:
    def test_linear_scoring(self, keypair, enc_rng):
        codec = keypair.codec
        features = [1.0, -2.0, 0.5]
        weights = [0.5, 0.25, 2.0]
        ciphers = keypair.public_key.encrypt_vector(features, enc_rng, codec)
        encoded_weights = [codec.encode(w) for w in weights]
        result = encrypted_dot(ciphers, encoded_weights)
        decrypted = codec.decode_product(keypair.private_key.decrypt(result))
        assert decrypted == pytest.approx(float(np.dot(features, weights)),
                                          abs=1e-6)

    def test_dimension_mismatch_rejected(self, keypair, enc_rng):
        ciphers = keypair.public_key.encrypt_vector([1.0], enc_rng,
                                                    keypair.codec)
        with pytest.raises(CryptoError):
            encrypted_dot(ciphers, [1, 2])

    def test_empty_rejected(self):
        with pytest.raises(CryptoError):
            encrypted_dot([], [])
