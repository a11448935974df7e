"""Tests for authenticated symmetric encryption."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.symmetric import (
    Envelope,
    KEY_BYTES,
    NONCE_BYTES,
    TAG_BYTES,
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
#: _pattern(n), default_rng(0))``.  The nonce (first 16 bytes) is the RNG's
#: first draw, unchanged since commit f47aa5d; tag and ciphertext were
#: re-pinned when the cipher became AES-256-GCM.  4096 is pinned by the
#: SHA-256 of the same wire bytes.
_KNOWN_ENVELOPES = {
    0: (
        "5f82c2d9cfeb0fa321d7d982f8bd104562ba60c8a0f723dd9ee3e1d213540eee"
    ),
    1: (
        "5f82c2d9cfeb0fa321d7d982f8bd104577d505b98178baa11dfdfbedf4791191"
        "40"
    ),
    31: (
        "5f82c2d9cfeb0fa321d7d982f8bd104583e179f33295f3485680fb7874c047bb"
        "4045dab551e3358b9b6febbed0bb303f4d397a2088da13231c0c72ece205d5"
    ),
    32: (
        "5f82c2d9cfeb0fa321d7d982f8bd104598d32b9ee3b0db31e1adbb3cfe33d6db"
        "4045dab551e3358b9b6febbed0bb303f4d397a2088da13231c0c72ece205d5d1"
    ),
    33: (
        "5f82c2d9cfeb0fa321d7d982f8bd104512725b3f3ce36c9b42bec713df3b06af"
        "4045dab551e3358b9b6febbed0bb303f4d397a2088da13231c0c72ece205d5d1"
        "11"
    ),
}
_KNOWN_ENVELOPE_4096_SHA256 = (
    "e6e130bd926b06e0ab1e6c2572c59c1be9ae90eb0e227f6f5e146ee00f976f2a")


def _reference_encrypt(key: bytes, plaintext: bytes,
                       rng: np.random.Generator) -> Envelope:
    """AES-GCM fed one byte at a time through OpenSSL's streaming
    interface, not the one-shot AEAD call (test oracle)."""
    nonce = rng.bytes(NONCE_BYTES)
    encryptor = Cipher(algorithms.AES(key), modes.GCM(nonce)).encryptor()
    ciphertext = b"".join(encryptor.update(bytes([byte]))
                          for byte in plaintext) + encryptor.finalize()
    return Envelope(nonce=nonce, ciphertext=ciphertext, tag=encryptor.tag)


class _Nonce:
    """An RNG stand-in whose one draw is a chosen nonce."""

    def __init__(self, nonce: bytes):
        self.nonce = nonce

    def bytes(self, length: int) -> bytes:
        assert length == len(self.nonce)
        return self.nonce


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """The counter-mode keystream: the ciphertext of ``length`` zeros."""
    return encrypt(key, bytes(length), _Nonce(nonce)).ciphertext


class TestSameBytes:
    """The envelope bytes are pinned: a faster path may not move them, and a
    change of cipher moves them once, on purpose."""

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
        assert len(envelope.tag) == TAG_BYTES
        assert decrypt(key, envelope) == plaintext

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 4096])
    def test_keystream_is_a_prefix_of_every_longer_one(self, length):
        """One counter-mode stream per (key, nonce): a longer message
        continues it, so a message's keystream does not depend on how long
        the message is."""
        key, nonce = bytes(range(32)), bytes(range(16))
        stream = _keystream(key, nonce, length)
        assert len(stream) == length
        for extra in (1, 31, 32, 137):
            assert _keystream(key, nonce, length + extra)[:length] == stream
        if length:
            assert stream != _keystream(key, nonce[::-1], length)
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


class TestDecoderRobustness:
    """Malformed wire bytes raise :class:`DecryptionError` — never a raw
    ``InvalidTag`` or ``ValueError`` from the cipher underneath."""

    @settings(max_examples=80, deadline=None)
    @given(st.binary(max_size=120))
    def test_garbage(self, wire):
        key = bytes(range(32))
        with pytest.raises(DecryptionError):
            decrypt(key, Envelope.from_bytes(wire))

    @pytest.mark.parametrize("keep", [0, 1, NONCE_BYTES,
                                      NONCE_BYTES + TAG_BYTES - 1,
                                      NONCE_BYTES + TAG_BYTES, -1])
    def test_truncated(self, keep):
        rng = np.random.default_rng(3)
        key = generate_key(rng)
        wire = encrypt(key, b"sixteen byte msg", rng).to_bytes()
        with pytest.raises(DecryptionError):
            decrypt(key, Envelope.from_bytes(wire[:keep]))

    def test_fields_of_the_wrong_length(self, rng):
        key = generate_key(rng)
        envelope = encrypt(key, b"data", rng)
        for forged in (Envelope(b"", envelope.ciphertext, envelope.tag),
                       Envelope(envelope.nonce, envelope.ciphertext, b"")):
            with pytest.raises(DecryptionError):
                decrypt(key, forged)
