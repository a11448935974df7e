"""Tests for additive and Shamir secret sharing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.secret_sharing import (
    DEFAULT_PRIME,
    additive_share,
    decode_signed,
    encode_signed,
    shamir_reconstruct,
    shamir_reconstruct_bytes,
    shamir_share,
    shamir_share_bytes,
)
from repro.errors import SecretSharingError


class TestFieldEncoding:
    @pytest.mark.parametrize("value", [0, 1, -1, 10**30, -(10**30)])
    def test_round_trip(self, value):
        assert decode_signed(encode_signed(value)) == value

    def test_rejects_overflow(self):
        with pytest.raises(SecretSharingError):
            encode_signed(DEFAULT_PRIME)


def reconstruct(shares: list[int]) -> int:
    """The additive-sharing oracle: shares sum to the encoded secret."""
    return decode_signed(sum(shares))


class TestAdditive:
    def test_round_trip(self, rng):
        shares = additive_share(-123456, 5, rng)
        assert reconstruct(shares) == -123456

    def test_share_count(self, rng):
        assert len(additive_share(7, 4, rng)) == 4

    def test_partial_shares_do_not_reconstruct(self, rng):
        shares = additive_share(999, 3, rng)
        assert reconstruct(shares[:2]) != 999

    def test_needs_two_parties(self, rng):
        with pytest.raises(SecretSharingError):
            additive_share(1, 1, rng)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-10**18, 10**18), st.integers(2, 8))
    def test_round_trip_property(self, secret, parties):
        rng = np.random.default_rng(7)
        shares = additive_share(secret, parties, rng)
        assert reconstruct(shares) == secret


class TestShamir:
    def test_threshold_reconstruction(self, rng):
        shares = shamir_share(424242, threshold=3, parties=5, rng=rng)
        assert shamir_reconstruct(shares[:3]) == 424242
        assert shamir_reconstruct(shares[2:]) == 424242
        assert shamir_reconstruct(shares) == 424242

    def test_below_threshold_wrong(self, rng):
        shares = shamir_share(424242, threshold=3, parties=5, rng=rng)
        # With 2 of 3 shares the interpolation yields garbage.
        assert shamir_reconstruct(shares[:2]) != 424242

    def test_negative_secret(self, rng):
        shares = shamir_share(-5, threshold=2, parties=3, rng=rng)
        assert shamir_reconstruct(shares[:2]) == -5

    def test_duplicate_share_rejected(self, rng):
        shares = shamir_share(5, threshold=2, parties=3, rng=rng)
        with pytest.raises(SecretSharingError):
            shamir_reconstruct([shares[0], shares[0]])

    def test_invalid_threshold_rejected(self, rng):
        with pytest.raises(SecretSharingError):
            shamir_share(5, threshold=4, parties=3, rng=rng)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(-10**12, 10**12), st.integers(1, 5), st.data())
    def test_any_quorum_reconstructs(self, secret, threshold, data):
        parties = data.draw(st.integers(threshold, threshold + 3))
        rng = np.random.default_rng(11)
        shares = shamir_share(secret, threshold, parties, rng)
        subset_idx = data.draw(
            st.lists(st.integers(0, parties - 1), min_size=threshold,
                     max_size=parties, unique=True)
        )
        subset = [shares[i] for i in subset_idx]
        assert shamir_reconstruct(subset) == secret


class TestShamirBytes:
    def test_round_trip(self, rng):
        secret = b"\x00\x01super-secret-key-material\xff"
        per_keeper = shamir_share_bytes(secret, 3, 5, rng)
        assert shamir_reconstruct_bytes(per_keeper[1:4]) == secret

    def test_long_secret_chunks(self, rng):
        secret = bytes(range(256)) * 2
        per_keeper = shamir_share_bytes(secret, 2, 4, rng)
        assert shamir_reconstruct_bytes(per_keeper[:2]) == secret

    def test_leading_zeros_preserved(self, rng):
        secret = b"\x00\x00\x00abc"
        per_keeper = shamir_share_bytes(secret, 2, 3, rng)
        assert shamir_reconstruct_bytes(per_keeper[:2]) == secret

    def test_keeper_chunk_mismatch_rejected(self, rng):
        per_keeper = shamir_share_bytes(b"x" * 40, 2, 3, rng)
        per_keeper[0] = per_keeper[0][:-1]
        with pytest.raises(SecretSharingError):
            shamir_reconstruct_bytes(per_keeper[:2])

    def test_empty_keepers_rejected(self):
        with pytest.raises(SecretSharingError):
            shamir_reconstruct_bytes([])

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=0, max_size=64))
    def test_round_trip_property(self, secret):
        rng = np.random.default_rng(13)
        per_keeper = shamir_share_bytes(secret, 2, 3, rng)
        assert shamir_reconstruct_bytes(per_keeper[:2]) == secret
