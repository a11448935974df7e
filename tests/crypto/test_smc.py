"""Tests for the additive-sharing SMC engine."""

from __future__ import annotations

import pytest

from repro.crypto.smc import FIELD_ELEMENT_BYTES, SMCEngine
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

    def test_mul_plain(self, engine):
        a = engine.share_scalar(3.0)
        assert engine.reveal(engine.mul_plain(a, -2.0)) == pytest.approx(-6.0)

    def test_scale_mismatch_rejected(self, engine):
        a = engine.share_scalar(1.0)
        b = engine.mul_plain(engine.share_scalar(1.0), 1.0)  # scale 2
        with pytest.raises(SecretSharingError):
            engine.add(a, b)

    def test_dot_plain(self, engine):
        values = engine.share_vector([1.0, -2.0])
        result = engine.dot_plain(values, [0.5, 0.25])
        assert engine.reveal(result) == pytest.approx(0.0)


class TestCommunicationAccounting:
    def test_addition_is_free(self, engine):
        a = engine.share_scalar(1.0)
        b = engine.share_scalar(2.0)
        before = engine.log.rounds
        engine.add(a, b)
        assert engine.log.rounds == before

    def test_bytes_accounting(self, engine):
        a = engine.share_scalar(1.0)
        b = engine.share_scalar(2.0)
        before = engine.log.bytes_sent
        engine.reveal(engine.add(a, b))
        # Opening: 3 parties broadcast 1 element to 2 peers each.
        expected = 3 * 2 * 1 * FIELD_ELEMENT_BYTES
        assert engine.log.bytes_sent - before == expected
