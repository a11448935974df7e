"""Tests for the Beaver-triple SMC engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.secret_sharing import DEFAULT_PRIME
from repro.crypto.smc import FIELD_ELEMENT_BYTES, SMCEngine, TripleDealer
from repro.errors import SecretSharingError


@pytest.fixture
def engine(rng) -> SMCEngine:
    return SMCEngine(parties=3, rng=rng)


class TestSharing:
    def test_share_reveal_round_trip(self, engine):
        shared = engine.share_scalar(3.25)
        assert engine.reveal(shared) == pytest.approx(3.25)

    def test_negative_values(self, engine):
        assert engine.reveal(engine.share_scalar(-7.5)) == pytest.approx(-7.5)

    def test_share_vector(self, engine):
        vector = engine.share_vector([1.0, -2.0, 0.25])
        values = [engine.reveal(v) for v in vector]
        assert values == pytest.approx([1.0, -2.0, 0.25])

    def test_individual_shares_hide_secret(self, engine):
        shared = engine.share_scalar(42.0)
        # No single share equals the fixed-point encoding of the secret.
        encoded = round(42.0 * engine.scale)
        assert all(share != encoded for share in shared.shares)

    def test_needs_two_parties(self, rng):
        with pytest.raises(SecretSharingError):
            SMCEngine(parties=1, rng=rng)


class TestArithmetic:
    def test_addition(self, engine):
        a = engine.share_scalar(1.5)
        b = engine.share_scalar(2.25)
        assert engine.reveal(engine.add(a, b)) == pytest.approx(3.75)

    def test_add_plain(self, engine):
        a = engine.share_scalar(1.5)
        assert engine.reveal(engine.add_plain(a, 10.0)) == pytest.approx(11.5)

    def test_mul_plain(self, engine):
        a = engine.share_scalar(3.0)
        assert engine.reveal(engine.mul_plain(a, -2.0)) == pytest.approx(-6.0)

    def test_beaver_multiplication(self, engine):
        a = engine.share_scalar(2.5)
        b = engine.share_scalar(-1.5)
        assert engine.reveal(engine.mul(a, b)) == pytest.approx(-3.75)

    def test_scale_mismatch_rejected(self, engine):
        a = engine.share_scalar(1.0)
        b = engine.mul_plain(engine.share_scalar(1.0), 1.0)  # scale 2
        with pytest.raises(SecretSharingError):
            engine.add(a, b)

    def test_dot_product(self, engine):
        left = engine.share_vector([1.0, 2.0, 3.0])
        right = engine.share_vector([4.0, 5.0, 6.0])
        assert engine.reveal(engine.dot(left, right)) == pytest.approx(32.0)

    def test_dot_plain(self, engine):
        values = engine.share_vector([1.0, -2.0])
        result = engine.dot_plain(values, [0.5, 0.25])
        assert engine.reveal(result) == pytest.approx(0.0)

    def test_dot_empty_rejected(self, engine):
        with pytest.raises(SecretSharingError):
            engine.dot([], [])

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-100, 100), st.floats(-100, 100))
    def test_multiplication_property(self, x, y):
        engine = SMCEngine(parties=2, rng=np.random.default_rng(3))
        result = engine.reveal(
            engine.mul(engine.share_scalar(x), engine.share_scalar(y))
        )
        # Tolerance follows fixed-point quantization: each operand carries
        # up to 2^-17 absolute error, amplified by the other's magnitude.
        tolerance = (abs(x) + abs(y) + 1.0) * 2.0**-16
        assert result == pytest.approx(x * y, abs=tolerance)


class TestCommunicationAccounting:
    def test_addition_is_free(self, engine):
        a = engine.share_scalar(1.0)
        b = engine.share_scalar(2.0)
        before = engine.log.rounds
        engine.add(a, b)
        assert engine.log.rounds == before

    def test_multiplication_costs_a_round(self, engine):
        a = engine.share_scalar(1.0)
        b = engine.share_scalar(2.0)
        before = engine.log.rounds
        engine.mul(a, b)
        assert engine.log.rounds == before + 1

    def test_dot_is_one_batched_round(self, engine):
        left = engine.share_vector([1.0] * 8)
        right = engine.share_vector([2.0] * 8)
        before = engine.log.rounds
        engine.dot(left, right)
        assert engine.log.rounds == before + 1

    def test_bytes_accounting(self, engine):
        a = engine.share_scalar(1.0)
        b = engine.share_scalar(2.0)
        before = engine.log.bytes_sent
        engine.mul(a, b)
        # 3 parties broadcast 2 elements to 2 peers each.
        expected = 3 * 2 * 2 * FIELD_ELEMENT_BYTES
        assert engine.log.bytes_sent - before == expected

    def test_dealer_counts_triples(self, engine):
        issued_before = engine.dealer.triples_issued
        engine.mul(engine.share_scalar(1.0), engine.share_scalar(1.0))
        assert engine.dealer.triples_issued == issued_before + 1


class TestTripleDealer:
    def test_triples_are_valid(self, rng):
        dealer = TripleDealer(parties=3, rng=rng)
        for _ in range(5):
            triple = dealer.next_triple()
            prime = DEFAULT_PRIME
            a = sum(triple.a_shares) % prime
            b = sum(triple.b_shares) % prime
            c = sum(triple.c_shares) % prime
            assert a * b % prime == c
