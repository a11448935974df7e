"""GLV combs for recurring points: the reader against the oracles, and the
promotion rule that decides who gets one.

``ec_backend.multi_scalar_mult`` reads ``G`` from its comb always, and the
point of a single-point call (``scalar_mult``, ``double_scalar_mult_base``)
from that point's own comb once it has had ``_COMB_PROMOTE_AT`` such calls;
those calls then run no doubling chain.  Every result here is held against
the affine oracle of :mod:`tests.crypto.affine_oracle` — or, for the
1 000-scalar run, the Jacobian wNAF loop of
:mod:`tests.crypto.jacobian_oracle` — and the rule itself is counted: when a
comb is built, what batch equations do (nothing), how large the two
structures may grow, and what a promoted verify costs.
"""

from __future__ import annotations

import random
from collections import OrderedDict

import pytest

from repro.crypto import ec_backend
from repro.crypto.ec_backend import (
    GX,
    GY,
    N,
    P,
    double_scalar_mult_base,
    multi_scalar_mult,
    scalar_mult,
    scalar_mult_base,
)
from repro.crypto.ecdsa import _VERIFY_CACHE, PrivateKey, batch_verify
from tests.crypto.affine_oracle import point_add, point_mul
from tests.crypto.jacobian_oracle import wnaf_scalar_mult

G = (GX, GY)
LAM = ec_backend._GLV_LAMBDA
PROMOTE_AT = ec_backend._COMB_PROMOTE_AT

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


@pytest.fixture(autouse=True)
def fresh_combs(monkeypatch):
    """An empty comb LRU and empty use counts for every test."""
    monkeypatch.setattr(ec_backend, "_COMBS", OrderedDict())
    monkeypatch.setattr(ec_backend, "_COMB_USES", OrderedDict())


def promote(point):
    """Give ``point`` its comb through the rule itself."""
    for _ in range(PROMOTE_AT):
        scalar_mult(3, point)
    assert point in ec_backend._COMBS
    return point


def kinds():
    return {kind: ec_backend._SCALAR_MULTS.labels(kind=kind).value
            for kind in ("base", "comb", "multi")}


class TestCombPathAgainstTheOracle:
    def test_point_comb_edge_scalars(self):
        q = promote(point_mul(0xFACADE, G))
        for scalar in EDGE_SCALARS:
            assert scalar_mult(scalar, q) == point_mul(scalar, q), hex(scalar)

    def test_base_comb_edge_scalars(self):
        for scalar in EDGE_SCALARS:
            assert scalar_mult_base(scalar) == point_mul(scalar, G), \
                hex(scalar)

    def test_verify_shape_edge_scalars(self):
        q = promote(point_mul(0xC0DE, G))
        for u1 in EDGE_SCALARS[::3]:
            for u2 in EDGE_SCALARS[1::3]:
                expected = point_add(point_mul(u1, G), point_mul(u2, q))
                assert double_scalar_mult_base(u1, u2, q) == expected, \
                    (hex(u1), hex(u2))

    def test_sum_at_infinity(self):
        secret = 0xBADCAFE
        q = promote(point_mul(secret, G))
        for u2 in EDGE_SCALARS[1:6] + [_RANDOM.randrange(1, N)]:
            assert double_scalar_mult_base(-u2 * secret % N, u2, q) is None

    @pytest.mark.parametrize("sign", [1, -1], ids=["G", "minus_G"])
    def test_q_is_plus_or_minus_g(self, sign):
        # G's comb and Q's name the same rows: same-x additions (doubling
        # or cancellation) inside the accumulator are the rule, not rare.
        q = promote(G if sign == 1 else (GX, P - GY))
        for u1, u2 in [(5, 5), (7, N - 7), (2**128 + 1, 2**128 + 1),
                       (N - 1, 1), (LAM, LAM), (1, N - 1)]:
            assert double_scalar_mult_base(u1, u2, q) == \
                point_mul(u1 + sign * u2, G), (hex(u1), hex(u2))

    def test_bulk_1000_on_a_promoted_point(self):
        q = promote(point_mul(0xB0B, G))
        before = kinds()
        for _ in range(1000):
            scalar = _RANDOM.randrange(1, N)
            assert scalar_mult(scalar, q) == wnaf_scalar_mult(scalar, q), \
                hex(scalar)
        assert kinds()["comb"] - before["comb"] == 1000
        assert kinds()["multi"] == before["multi"]


class TestPromotion:
    def test_comb_is_built_at_the_fifth_single_point_use(self, monkeypatch):
        builds = []
        real = ec_backend._build_comb

        def spy(point, width):
            builds.append((point, width))
            return real(point, width)

        monkeypatch.setattr(ec_backend, "_build_comb", spy)
        q = point_mul(0x5EED, G)
        for use in range(1, 2 * PROMOTE_AT + 1):
            scalar = _RANDOM.randrange(1, N)
            if use % 2:
                assert scalar_mult(scalar, q) == point_mul(scalar, q)
            else:
                assert double_scalar_mult_base(7, scalar, q) == \
                    point_add(point_mul(7, G), point_mul(scalar, q))
            promoted = use >= PROMOTE_AT
            assert (q in ec_backend._COMBS) == promoted, use
            assert ec_backend._COMB_USES.get(q) == \
                (None if promoted else use), use
        assert builds == [(q, ec_backend._POINT_COMB_WIDTH)]

    def test_dead_terms_do_not_count(self):
        q = point_mul(0xDEAD, G)
        for _ in range(2 * PROMOTE_AT):
            assert scalar_mult(N, q) is None
            assert double_scalar_mult_base(9, 0, q) == point_mul(9, G)
        assert not ec_backend._COMB_USES and not ec_backend._COMBS

    def test_batch_equations_neither_count_nor_build(self, monkeypatch):
        read = []
        real = ec_backend._comb_addends

        def spy(scalar, comb, width, addends):
            read.append(width)
            return real(scalar, comb, width, addends)

        monkeypatch.setattr(ec_backend, "_comb_addends", spy)
        q, q2, r = (point_mul(k, G) for k in (0xA1, 0xA2, 0xA3))
        key = PrivateKey.from_seed(b"comb-batch")
        items = [(key.public_key, b"m%d" % i, key.sign(b"m%d" % i))
                 for i in range(2)]
        read.clear()
        for _ in range(2 * PROMOTE_AT):
            assert multi_scalar_mult(5, [(11, q)], [(13, r)]) == \
                point_mul(5 + 11 * 0xA1 + 13 * 0xA3, G)
            assert multi_scalar_mult(0, [(11, q), (13, q2)]) == \
                point_mul(11 * 0xA1 + 13 * 0xA2, G)
            _VERIFY_CACHE.clear()
            assert batch_verify(items) == [True, True]
        assert not ec_backend._COMB_USES and not ec_backend._COMBS
        # A promoted point is not read from its comb inside a batch either.
        promote(q)
        read.clear()
        assert multi_scalar_mult(5, [(11, q)], [(13, r)]) == \
            point_mul(5 + 11 * 0xA1 + 13 * 0xA3, G)
        assert read == [ec_backend._G_COMB_WIDTH]

    def test_both_structures_stay_bounded(self):
        uses_cap = ec_backend._COMB_USES_MAX
        points = [scalar_mult_base(k) for k in range(1, uses_cap + 41)]
        for point in points:
            ec_backend._promoted_comb(point)
        assert list(ec_backend._COMB_USES) == points[40:]
        combs_cap = ec_backend._COMB_CACHE_MAX
        recurring = points[:combs_cap + 3]
        for point in recurring:
            for _ in range(PROMOTE_AT):
                ec_backend._promoted_comb(point)
        assert list(ec_backend._COMBS) == recurring[3:]
        assert len(ec_backend._COMB_USES) <= uses_cap
        # An evicted point counts from zero again.
        assert ec_backend._promoted_comb(recurring[0]) is None
        assert ec_backend._COMB_USES[recurring[0]] == 1


class TestCost:
    def test_promoted_verify_inverts_once_mod_p(self, curve_ops):
        key = PrivateKey.from_seed(b"comb-cost")
        messages = [b"cost-%d" % i for i in range(PROMOTE_AT + 1)]
        signed = [(m, key.sign(m)) for m in messages]
        for message, signature in signed[:PROMOTE_AT]:
            assert key.public_key.verify(message, signature)
        before = dict(curve_ops)
        assert key.public_key.verify(*signed[-1])
        assert curve_ops["inverse_mod_p"] - before["inverse_mod_p"] == 1
        assert curve_ops["inverse_mod_n"] - before["inverse_mod_n"] == 1

    def test_selection_is_counted(self):
        key = PrivateKey.from_seed(b"comb-kinds")
        messages = [b"kind-%d" % i for i in range(PROMOTE_AT + 3)]
        signed = [(key.public_key, m, key.sign(m)) for m in messages]
        for public_key, message, signature in signed[:PROMOTE_AT]:
            assert public_key.verify(message, signature)
        before = kinds()
        public_key, message, signature = signed[PROMOTE_AT]
        assert public_key.verify(message, signature)
        assert kinds() == {**before, "comb": before["comb"] + 1}
        before = kinds()
        assert batch_verify(signed[PROMOTE_AT + 1:]) == [True, True]
        assert kinds() == {**before, "multi": before["multi"] + 1}
