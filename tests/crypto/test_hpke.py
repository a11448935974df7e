"""Tests for the RFC 9180 HPKE channel (Auth mode, X25519, AES-128-GCM)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hpke as oracle
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import hpke
from repro.errors import DecryptionError

INFO = b"pds2/partition/wl-1/0xprovider"
SUITE = oracle.Suite(oracle.KEM.X25519, oracle.KDF.HKDF_SHA256,
                     oracle.AEAD.AES_128_GCM)


def _key(seed: int) -> X25519PrivateKey:
    return X25519PrivateKey.from_private_bytes(
        np.random.default_rng(seed).bytes(32))


@pytest.fixture
def parties():
    """(enclave, provider, imposter) private keys."""
    return _key(1), _key(2), _key(3)


def _seal_base(recipient, plaintext, info, rng):
    """Base-mode HPKE from the module's KEM and key schedule: the same
    labels and AEAD as :func:`hpke.seal`, without the sender's key."""
    ephemeral = X25519PrivateKey.from_private_bytes(rng.bytes(32))
    enc = ephemeral.public_key().public_bytes_raw()
    kem_context = enc + recipient.public_bytes_raw()
    aead, nonce = hpke._key_schedule(
        hpke.MODE_BASE,
        hpke._kem_secret(ephemeral.exchange(recipient), kem_context), info)
    return enc + aead.encrypt(nonce, plaintext, None)


class TestOracle:
    """OpenSSL's ``hpke.Suite`` (base mode only) checks the KEM, every
    label of the key schedule and the AEAD."""

    @pytest.mark.parametrize("size", [0, 1, 16, 4096])
    def test_suite_opens_a_base_mode_blob(self, parties, size):
        enclave, _, _ = parties
        plaintext = bytes(range(256)) * (size // 256) + bytes(size % 256)
        blob = _seal_base(enclave.public_key(), plaintext, INFO,
                          np.random.default_rng(size))
        assert SUITE.decrypt(blob, enclave, info=INFO) == plaintext

    def test_suite_rejects_the_wrong_info(self, parties):
        enclave, _, _ = parties
        blob = _seal_base(enclave.public_key(), b"rows", INFO,
                          np.random.default_rng(0))
        with pytest.raises(InvalidTag):
            SUITE.decrypt(blob, enclave, info=INFO + b"!")


class TestSealOpen:
    def test_round_trip(self, parties):
        enclave, provider, _ = parties
        blob = hpke.seal(enclave.public_key(), provider, b"rows", INFO,
                         np.random.default_rng(0))
        assert len(blob) == hpke.ENC_BYTES + 4 + hpke.TAG_BYTES
        assert hpke.open(enclave, provider.public_key(), blob, INFO) == b"rows"

    def test_byte_stable_per_seed(self, parties):
        enclave, provider, _ = parties

        def sealed(seed):
            return hpke.seal(enclave.public_key(), provider, b"rows" * 100,
                             INFO, np.random.default_rng(seed))

        assert sealed(7) == sealed(7)
        assert sealed(7) != sealed(8)
        assert hashlib.sha256(sealed(7)).hexdigest() == (
            "530adbf92e4ed2d48be843fd67fb73dab8686579f07c6e2921914fe42557a7a6")

    def test_auth_mode_is_not_base_mode(self, parties):
        enclave, provider, _ = parties
        blob = hpke.seal(enclave.public_key(), provider, b"rows", INFO,
                         np.random.default_rng(0))
        with pytest.raises(InvalidTag):
            SUITE.decrypt(blob, enclave, info=INFO)

    def test_imposter_sender_rejected(self, parties):
        enclave, provider, imposter = parties
        blob = hpke.seal(enclave.public_key(), imposter, b"rows", INFO,
                         np.random.default_rng(0))
        with pytest.raises(DecryptionError):
            hpke.open(enclave, provider.public_key(), blob, INFO)

    def test_wrong_enclave_rejected(self, parties):
        enclave, provider, _ = parties
        blob = hpke.seal(enclave.public_key(), provider, b"rows", INFO,
                         np.random.default_rng(0))
        with pytest.raises(DecryptionError):
            hpke.open(_key(4), provider.public_key(), blob, INFO)

    @pytest.mark.parametrize("info", [b"", INFO + b"x",
                                      b"pds2/partition/wl-2/0xprovider"])
    def test_wrong_info_rejected(self, parties, info):
        enclave, provider, _ = parties
        blob = hpke.seal(enclave.public_key(), provider, b"rows", INFO,
                         np.random.default_rng(0))
        with pytest.raises(DecryptionError):
            hpke.open(enclave, provider.public_key(), blob, info)


class TestDecoderRobustness:
    """Malformed blobs raise :class:`DecryptionError`, never a raw
    ``InvalidTag`` or ``ValueError``."""

    @staticmethod
    def _blob(parties):
        enclave, provider, _ = parties
        return hpke.seal(enclave.public_key(), provider, b"x" * 40, INFO,
                         np.random.default_rng(5))

    @pytest.mark.parametrize("keep", [0, 1, hpke.ENC_BYTES,
                                      hpke.ENC_BYTES + hpke.TAG_BYTES - 1,
                                      hpke.ENC_BYTES + hpke.TAG_BYTES, -1])
    def test_truncated(self, parties, keep):
        enclave, provider, _ = parties
        with pytest.raises(DecryptionError):
            hpke.open(enclave, provider.public_key(),
                      self._blob(parties)[:keep], INFO)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_flipped_byte_rejected(self, data):
        parties = (_key(1), _key(2), _key(3))
        enclave, provider, _ = parties
        blob = bytearray(self._blob(parties))
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(
            st.integers(1, 255))
        with pytest.raises(DecryptionError):
            hpke.open(enclave, provider.public_key(), bytes(blob), INFO)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=120))
    def test_garbage(self, blob):
        with pytest.raises(DecryptionError):
            hpke.open(_key(1), _key(2).public_key(), blob, INFO)

    def test_low_order_ephemeral_key(self, parties):
        """An all-zero ``enc`` is a point of small order: the exchange
        refuses it, and that too is a :class:`DecryptionError`."""
        enclave, provider, _ = parties
        blob = bytes(hpke.ENC_BYTES) + self._blob(parties)[hpke.ENC_BYTES:]
        with pytest.raises(DecryptionError):
            hpke.open(enclave, provider.public_key(), blob, INFO)
