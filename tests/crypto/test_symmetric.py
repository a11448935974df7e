"""Tests for authenticated symmetric encryption."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import hmac_sha256
from repro.crypto.symmetric import (
    Envelope,
    KEY_BYTES,
    NONCE_BYTES,
    _derive_subkeys,
    _keystream,
    decrypt,
    encrypt,
    generate_key,
)
from repro.errors import DecryptionError, InvalidKeyError


class TestEncryptDecrypt:
    def test_round_trip(self, rng):
        key = generate_key(rng)
        envelope = encrypt(key, b"hello pds2", rng)
        assert decrypt(key, envelope) == b"hello pds2"

    def test_empty_plaintext(self, rng):
        key = generate_key(rng)
        assert decrypt(key, encrypt(key, b"", rng)) == b""

    def test_large_plaintext(self, rng):
        key = generate_key(rng)
        data = bytes(rng.integers(0, 256, 100_000, dtype=np.uint8))
        assert decrypt(key, encrypt(key, data, rng)) == data

    def test_ciphertext_hides_plaintext(self, rng):
        key = generate_key(rng)
        envelope = encrypt(key, b"findme-findme-findme", rng)
        assert b"findme" not in envelope.ciphertext

    def test_fresh_nonces(self, rng):
        key = generate_key(rng)
        a = encrypt(key, b"same", rng)
        b = encrypt(key, b"same", rng)
        assert a.nonce != b.nonce
        assert a.ciphertext != b.ciphertext

    def test_wrong_key_rejected(self, rng):
        envelope = encrypt(generate_key(rng), b"secret", rng)
        with pytest.raises(DecryptionError):
            decrypt(generate_key(rng), envelope)

    def test_tampered_ciphertext_rejected(self, rng):
        key = generate_key(rng)
        envelope = encrypt(key, b"secret-data", rng)
        tampered = Envelope(
            nonce=envelope.nonce,
            ciphertext=bytes([envelope.ciphertext[0] ^ 1])
            + envelope.ciphertext[1:],
            tag=envelope.tag,
        )
        with pytest.raises(DecryptionError):
            decrypt(key, tampered)

    def test_tampered_tag_rejected(self, rng):
        key = generate_key(rng)
        envelope = encrypt(key, b"secret-data", rng)
        tampered = Envelope(
            nonce=envelope.nonce,
            ciphertext=envelope.ciphertext,
            tag=bytes([envelope.tag[0] ^ 1]) + envelope.tag[1:],
        )
        with pytest.raises(DecryptionError):
            decrypt(key, tampered)

    def test_bad_key_length_rejected(self, rng):
        with pytest.raises(InvalidKeyError):
            encrypt(b"short", b"data", rng)
        envelope = encrypt(generate_key(rng), b"data", rng)
        with pytest.raises(DecryptionError):
            decrypt(b"short", envelope)

    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=256))
    def test_round_trip_property(self, plaintext):
        rng = np.random.default_rng(1)
        key = generate_key(rng)
        assert decrypt(key, encrypt(key, plaintext, rng)) == plaintext


class TestEnvelopeWire:
    def test_round_trip(self, rng):
        key = generate_key(rng)
        envelope = encrypt(key, b"data", rng)
        parsed = Envelope.from_bytes(envelope.to_bytes())
        assert parsed == envelope
        assert decrypt(key, parsed) == b"data"

    def test_short_wire_rejected(self):
        with pytest.raises(DecryptionError):
            Envelope.from_bytes(b"\x00" * 8)

    def test_key_size_constant(self, rng):
        assert len(generate_key(rng)) == KEY_BYTES


def _pattern(length: int) -> bytes:
    return bytes((i * 7 + 3) % 256 for i in range(length))


#: ``Envelope.to_bytes().hex()`` of ``encrypt(bytes(range(32)),
#: _pattern(n), default_rng(0))``.  Nonce (first 16 bytes) and every seeded
#: value downstream are those of commit f47aa5d; tag and ciphertext were
#: re-pinned when the keystream became one SHAKE-256 call (the length-0
#: envelope, which has no keystream, did not move).  4096 is pinned by the
#: SHA-256 of the same wire bytes.
_KNOWN_ENVELOPES = {
    0: (
        "5f82c2d9cfeb0fa321d7d982f8bd10455252b9ac417ddb7ff2cc633d393c5dcc"
        "715583b9db94c7e1793e2f259315fb50"
    ),
    1: (
        "5f82c2d9cfeb0fa321d7d982f8bd10458d2781c714ff85e5fa8b847f53e5262d"
        "5b52bdcb934494b6cd616335c5f37d05d9"
    ),
    31: (
        "5f82c2d9cfeb0fa321d7d982f8bd1045509e3220912d5c4d3cf65bacd8001a5b"
        "fb6baf2751fb6dc52f21cac0e232e809d95dec72c5075db46ea47d06e2214b26"
        "7514f312ce52700256580851a49a68"
    ),
    32: (
        "5f82c2d9cfeb0fa321d7d982f8bd1045cc603b5f4405f079bba9d00eff01210a"
        "06c4e45c7a3bce84c68585b57bf2a7e7d95dec72c5075db46ea47d06e2214b26"
        "7514f312ce52700256580851a49a683d"
    ),
    33: (
        "5f82c2d9cfeb0fa321d7d982f8bd104593bec9c35764af8482a0a42a93bfb7d7"
        "707090b257fc8400927714044b7d8c01d95dec72c5075db46ea47d06e2214b26"
        "7514f312ce52700256580851a49a683d6c"
    ),
}
_KNOWN_ENVELOPE_4096_SHA256 = (
    "2d71f56ea17df2b38e1b1fdbe05640c7dc69fce4008b6ea3c82daa6af208e743")


def _reference_encrypt(key: bytes, plaintext: bytes,
                       rng: np.random.Generator) -> Envelope:
    """The per-byte construction the word-wide XOR replaced (test oracle)."""
    enc_key, mac_key = _derive_subkeys(key)
    nonce = rng.bytes(NONCE_BYTES)
    stream = _keystream(enc_key, nonce, len(plaintext))
    ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
    return Envelope(nonce=nonce, ciphertext=ciphertext,
                    tag=hmac_sha256(mac_key, nonce + ciphertext))


class TestSameBytes:
    """The envelope bytes are pinned: a faster XOR may not move them, and a
    change of keystream moves them once, on purpose."""

    @pytest.mark.parametrize("length", sorted(_KNOWN_ENVELOPES))
    def test_known_answer(self, length):
        envelope = encrypt(bytes(range(32)), _pattern(length),
                           np.random.default_rng(0))
        assert envelope.to_bytes().hex() == _KNOWN_ENVELOPES[length]
        assert decrypt(bytes(range(32)), envelope) == _pattern(length)

    def test_known_answer_4096(self):
        envelope = encrypt(bytes(range(32)), _pattern(4096),
                           np.random.default_rng(0))
        assert (hashlib.sha256(envelope.to_bytes()).hexdigest()
                == _KNOWN_ENVELOPE_4096_SHA256)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=KEY_BYTES, max_size=KEY_BYTES),
           st.binary(max_size=300), st.integers(0, 2**32 - 1))
    def test_equals_per_byte_reference(self, key, plaintext, seed):
        envelope = encrypt(key, plaintext, np.random.default_rng(seed))
        assert envelope == _reference_encrypt(
            key, plaintext, np.random.default_rng(seed))
        assert decrypt(key, envelope) == plaintext

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 4096])
    def test_keystream_is_a_prefix_of_every_longer_one(self, length):
        """One XOF output stream per (key, nonce): asking for more bytes
        continues it, so a message's keystream does not depend on how long
        the message is."""
        enc_key, nonce = bytes(range(32)), bytes(range(16))
        stream = _keystream(enc_key, nonce, length)
        assert len(stream) == length
        for extra in (1, 31, 32, 137):
            assert _keystream(enc_key, nonce,
                              length + extra)[:length] == stream
        if length:
            assert stream != _keystream(enc_key, nonce[::-1], length)
            assert stream != _keystream(nonce * 2, nonce, length)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=1, max_size=100), st.data())
    def test_any_flipped_byte_rejected(self, plaintext, data):
        rng = np.random.default_rng(2)
        key = generate_key(rng)
        wire = bytearray(encrypt(key, plaintext, rng).to_bytes())
        position = data.draw(st.integers(0, len(wire) - 1))
        wire[position] ^= data.draw(st.integers(1, 255))
        with pytest.raises(DecryptionError):
            decrypt(key, Envelope.from_bytes(bytes(wire)))
