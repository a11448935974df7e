"""GLV combs: the reader against the oracles, and the rule that ``G``'s
is the only one the engine builds.

``ec_backend.scalar_mult_base`` reads ``G`` from its comb always; every
other product runs in OpenSSL: the variable-base single-point operations
(ECDH, one signature's check) in ``cryptography`` and the batch equation
in libcrypto (held here to the oracle through
:func:`tests.crypto.sums.sums_to`).  A
point's own comb is built here only, with the same builder at width 4, to
hold the reader to a second geometry.  Every result
is held against the affine oracle of :mod:`tests.crypto.affine_oracle` —
or, for the 1 000-scalar run, the Jacobian wNAF loop of
:mod:`tests.crypto.jacobian_oracle` — and the rule itself is counted: what
single-point uses and batch equations build (nothing) and what the crypto
layer keeps across calls (``G``'s comb, and no verdict).
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import ec_backend
from repro.crypto.ec_backend import (
    GX,
    GY,
    N,
    P,
    scalar_mult_base,
)
from repro.crypto import ecdsa
from repro.crypto.ecdsa import (
    PrivateKey,
    batch_verify,
    shared_secret,
)
from tests.crypto.affine_oracle import point_add, point_mul
from tests.crypto.jacobian_oracle import jacobian_add_affine, wnaf_scalar_mult
from tests.crypto.rule import WIDTH
from tests.crypto.sums import sums_to


#: Every batch here is sized against a pinned rule (tests/crypto/rule.py).
pytestmark = pytest.mark.usefixtures("equation_from_32")

G = (GX, GY)
LAM = ec_backend._GLV_LAMBDA
POINT_COMB_WIDTH = 4
USES = 5  # single-point uses per key, past the old promotion count

_RANDOM = random.Random(0xC0B)


def _with_half_signs(k1_negative: bool, k2_negative: bool) -> int:
    """The first seeded scalar whose GLV halves have these signs."""
    while True:
        k = _RANDOM.randrange(1, N)
        k1, k2 = ec_backend._glv_split(k)
        if (k1 < 0, k2 < 0) == (k1_negative, k2_negative):
            return k


EDGE_SCALARS = [0, 1, 2, N - 1, N - 2, N, LAM, LAM * LAM % N, N - LAM,
                2**128 - 1, 2**128, 2**128 + 1, 2**255, N // 2] + [
    _with_half_signs(a, b) for a in (False, True) for b in (False, True)]


def promote(point):
    """``point``'s own comb, built by the builder ``G``'s comes from."""
    return ec_backend._build_comb(point, POINT_COMB_WIDTH)


def comb_mult(scalar, comb):
    """``scalar · P`` read from ``P``'s comb, summed in one Jacobian
    accumulator, as the engine sums ``G``'s addends."""
    addends = []
    ec_backend._comb_addends(scalar, comb, POINT_COMB_WIDTH, addends)
    total = None
    for addend in addends:
        total = jacobian_add_affine(total, addend)
    return ec_backend.to_affine(total)


def kinds():
    return {kind: ec_backend._SCALAR_MULTS.labels(kind=kind).value
            for kind in ("base",)}


class TestCombPathAgainstTheOracle:
    def test_point_comb_edge_scalars(self):
        q = point_mul(0xFACADE, G)
        comb = promote(q)
        for scalar in EDGE_SCALARS:
            assert comb_mult(scalar, comb) == point_mul(scalar, q), \
                hex(scalar)

    def test_base_comb_edge_scalars(self):
        for scalar in EDGE_SCALARS:
            assert scalar_mult_base(scalar) == point_mul(scalar, G), \
                hex(scalar)

    def test_verify_shape_edge_scalars(self):
        q = point_mul(0xC0DE, G)
        for u1 in EDGE_SCALARS[::3]:
            for u2 in EDGE_SCALARS[1::3]:
                expected = point_add(point_mul(u1, G), point_mul(u2, q))
                assert sums_to(u1, [(u2, q)], expected), (hex(u1), hex(u2))

    def test_sum_at_infinity(self):
        secret = 0xBADCAFE
        q = point_mul(secret, G)
        for u2 in EDGE_SCALARS[1:6] + [_RANDOM.randrange(1, N)]:
            assert sums_to(-u2 * secret % N, [(u2, q)], None)

    @pytest.mark.parametrize("sign", [1, -1], ids=["G", "minus_G"])
    def test_q_is_plus_or_minus_g(self, sign):
        # The base term and Q's name the same point: the sum doubles it
        # or cancels it.
        q = G if sign == 1 else (GX, P - GY)
        for u1, u2 in [(5, 5), (7, N - 7), (2**128 + 1, 2**128 + 1),
                       (N - 1, 1), (LAM, LAM), (1, N - 1)]:
            assert sums_to(u1, [(u2, q)], point_mul(u1 + sign * u2, G)), \
                (hex(u1), hex(u2))

    def test_bulk_1000_on_a_promoted_point(self):
        q = point_mul(0xB0B, G)
        comb = promote(q)
        for _ in range(1000):
            scalar = _RANDOM.randrange(1, N)
            assert comb_mult(scalar, comb) == wnaf_scalar_mult(scalar, q), \
                hex(scalar)


class TestPromotion:
    """No point is promoted any more: ``G``'s comb is the only one."""

    @staticmethod
    def spy_builds(monkeypatch):
        ec_backend._g_comb()  # built once, before counting
        builds = []
        real = ec_backend._build_comb

        def spy(point, width):
            builds.append((point, width))
            return real(point, width)

        monkeypatch.setattr(ec_backend, "_build_comb", spy)
        return builds

    def test_no_single_point_use_builds_a_comb(self, monkeypatch):
        builds = self.spy_builds(monkeypatch)
        own = PrivateKey.from_seed(b"comb-single")
        peer = PrivateKey.from_seed(b"comb-peer")
        # Both public keys come from G's comb before the count starts.
        assert own.public_key != peer.public_key
        before = kinds()
        for use in range(2 * USES):
            message = b"use-%d" % use
            signature = peer.sign(message)
            assert peer.public_key.verify(message, signature)
            assert shared_secret(own, peer.public_key) == \
                shared_secret(peer, own.public_key)
        assert builds == []
        # Signing reads G's comb; nothing else reaches the engine.
        assert kinds() == {**before,
                           "base": before["base"] + 2 * USES}

    def test_dead_terms_do_not_count(self, monkeypatch):
        builds = self.spy_builds(monkeypatch)
        q = point_mul(0xDEAD, G)
        before = kinds()
        for _ in range(2 * USES):
            assert sums_to(0, [(N, q)], None)
            assert sums_to(9, [(0, q)], point_mul(9, G))
        assert builds == []
        assert kinds() == before

    def test_batch_equations_neither_count_nor_build(self, monkeypatch):
        builds = self.spy_builds(monkeypatch)
        read = []
        real = ec_backend._comb_addends

        def spy(scalar, comb, width, addends):
            read.append(width)
            return real(scalar, comb, width, addends)

        monkeypatch.setattr(ec_backend, "_comb_addends", spy)
        q, q2, r = (point_mul(k, G) for k in (0xA1, 0xA2, 0xA3))
        key = PrivateKey.from_seed(b"comb-batch")
        # The narrowest batch that reaches the equation.
        items = [(key.public_key, b"m%d" % i, key.sign(b"m%d" % i))
                 for i in range(WIDTH)]
        read.clear()
        before = kinds()
        for _ in range(2 * USES):
            assert sums_to(5, [(11, q), (13, r)],
                           point_mul(5 + 11 * 0xA1 + 13 * 0xA3, G))
            assert sums_to(0, [(11, q), (13, q2)],
                           point_mul(11 * 0xA1 + 13 * 0xA2, G))
            assert batch_verify(items) == [True] * len(items)
        assert builds == []
        # An equation's G term is libcrypto's: G's comb is not read.
        assert read == [] and kinds() == before

    def test_both_structures_stay_bounded(self):
        """What the crypto layer keeps across calls: ``G``'s comb, one
        object however many points pass.  No point's table is kept, and
        no verdict: a signature checked before is checked again."""
        comb = ec_backend._g_comb()
        keys = [PrivateKey(k) for k in range(1, 8 + 4)]
        signed = [(key.public_key, key.sign(b"cap")) for key in keys]
        checks = ecdsa._VERIFY_TOTAL.labels(path="single", outcome="ok")
        before = checks.value
        for _ in range(2):
            for public_key, signature in signed:
                point = (public_key.x, public_key.y)
                assert sums_to(3, [(5, point)], point_add(
                    point_mul(3, G), point_mul(5, point)))
                assert public_key.verify(b"cap", signature)
        assert checks.value - before == 2 * len(signed)
        assert ec_backend._g_comb() is comb
        assert [len(row) for row in comb] == \
            [1 << (ec_backend._G_COMB_WIDTH - 1)] * 15
