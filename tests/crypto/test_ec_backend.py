"""Differential tests for the fast EC backend against the affine oracle.

The textbook affine implementation in :mod:`tests.crypto.affine_oracle`
(:func:`point_add` / :func:`point_mul`) is deliberately naive and shares no
code with :mod:`repro.crypto.ec_backend`; everything here cross-checks the
optimized Jacobian/GLV/comb paths (and libcrypto's equation sum) against
it, plus externally published secp256k1 test vectors (RFC 6979
deterministic nonces), so a bug would have to appear identically in two
independent implementations *and* the published constants to slip through.
"""

from __future__ import annotations

import hashlib
import hmac
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ec_backend
from repro.crypto.ec_backend import (
    GX,
    GY,
    N,
    P,
    batch_to_affine,
    batch_add,
    jacobian_double,
    scalar_mult_base,
    to_affine,
)
from repro.crypto.ecdsa import PrivateKey, shared_secret
from repro.crypto.hashing import keccak256
from tests.crypto.affine_oracle import point_add, point_mul
from tests.crypto.glv_derivation import derive_glv
from tests.crypto.sums import sums_to
from tests.crypto.jacobian_oracle import (
    jacobian_add_affine,
    to_jacobian,
    wnaf,
    wnaf_scalar_mult,
)

G = (GX, GY)
# Production builds one comb, G's; a width-4 comb of another point holds
# the generic builder and reader to a second geometry.
POINT_COMB_WIDTH = 4

# Deterministic scalar pool shared by the bulk differential tests.
_RANDOM = random.Random(0xEC0FFEE)
EDGE_SCALARS = [1, 2, 3, N - 1, N - 2, N // 2, N // 2 + 1, 2**128, 2**255 % N]


def random_scalar() -> int:
    return _RANDOM.randrange(1, N)


def scalar_mult_is(scalar, point, expected):
    """libcrypto's ``scalar · point`` is ``expected``: a batch equation's
    key term on its own.  No production call has this shape (ECDH runs in
    ``cryptography``)."""
    return sums_to(0, [(scalar, point)], expected)


def double_scalar_mult_base_is(u1, u2, point, expected):
    """libcrypto's ``u1 · G + u2 · point`` is ``expected``: an equation of
    one signature."""
    return sums_to(u1, [(u2, point)], expected)


def comb_sum(comb, width, halves):
    """``k1·P + k2·φ(P)`` from ``_comb_addends`` with the split replaced
    by ``halves``, summed on the affine oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ec_backend, "_glv_split", lambda _: halves)
        addends = []
        ec_backend._comb_addends(1, comb, width, addends)
    total = None
    for addend in addends:
        total = point_add(total, addend)
    return total, len(addends)


class TestJacobianPrimitives:
    def test_round_trip_affine_jacobian(self):
        point = point_mul(1234567, G)
        assert to_affine(to_jacobian(point)) == point

    def test_double_matches_oracle(self):
        point = point_mul(987654321, G)
        assert to_affine(jacobian_double(to_jacobian(point))) == \
            point_add(point, point)

    def test_mixed_add_matches_oracle(self):
        p1 = point_mul(31337, G)
        p2 = point_mul(271828, G)
        assert to_affine(jacobian_add_affine(to_jacobian(p1), p2)) == \
            point_add(p1, p2)

    def test_infinity_identities(self):
        point = to_jacobian(point_mul(5, G))
        assert jacobian_add_affine(point, None) == point
        assert jacobian_add_affine(None, point_mul(5, G)) == point
        assert jacobian_double(None) is None
        assert to_affine(None) is None

    def test_batch_to_affine_matches_single(self):
        points = [to_jacobian(point_mul(k, G)) for k in (3, 5, 7)]
        # Give them distinct non-trivial Z by adding then doubling.
        jacobians = [jacobian_double(p) for p in points]
        batched = batch_to_affine(jacobians + [None])
        assert batched == [to_affine(p) for p in jacobians] + [None]

    def test_batch_to_affine_all_infinity(self):
        assert batch_to_affine([None, None]) == [None, None]


class TestBatchAdd:
    """``batch_add`` case by case, then every case in one call."""

    def test_chords_match_oracle(self):
        lefts = [point_mul(k, G) for k in (1111, 3, 2**200)]
        rights = [point_mul(k, G) for k in (2222, 5, N - 7)]
        assert batch_add(lefts, rights) == \
            [point_add(a, b) for a, b in zip(lefts, rights)]

    def test_equal_points_double(self):
        points = [point_mul(k, G) for k in (7, 987654321)]
        assert batch_add(points, points) == \
            [point_mul(14, G), point_mul(2 * 987654321, G)]

    def test_opposite_points_cancel(self, curve_ops):
        point = point_mul(42, G)
        negated = (point[0], P - point[1])
        assert batch_add([point, negated], [negated, point]) == [None, None]
        assert curve_ops["inverse_mod_p"] == 0  # no denominator at all

    def test_infinite_operands(self):
        point = point_mul(5, G)
        assert batch_add([None, point, None], [point, None, None]) == \
            [point, point, None]
        assert batch_add([], []) == []

    def test_every_case_in_one_call_shares_one_inversion(self, curve_ops):
        a, b = point_mul(31337, G), point_mul(271828, G)
        minus_a = (a[0], P - a[1])
        lefts = [a, a, a, None, b, a]
        rights = [b, a, minus_a, b, None, point_mul(N - 31336, G)]
        assert batch_add(lefts, rights) == \
            [point_add(x, y) for x, y in zip(lefts, rights)]
        assert curve_ops["inverse_mod_p"] == 1


class TestTablesAgainstJacobianBuilds:
    """Tables built by batched affine additions equal the same tables built
    one Jacobian addition at a time."""

    def test_comb_rows_are_running_sums_of_their_base(self):
        """Row ``i`` of a comb starts at ``2^(w·i)·P`` and entry ``d`` is
        ``d`` Jacobian additions of that base — for ``G``'s comb and for a
        point's."""
        point = point_mul(0xFACADE, G)
        for comb, start, width in [
                (ec_backend._g_comb(), G, ec_backend._G_COMB_WIDTH),
                (ec_backend._build_comb(point, POINT_COMB_WIDTH),
                 point, POINT_COMB_WIDTH)]:
            base = to_jacobian(start)
            for row in comb:
                assert row[0] == to_affine(base)
                running = None
                for entry in row:
                    running = jacobian_add_affine(running, row[0])
                    assert entry == to_affine(running)
                for _ in range(width):
                    base = jacobian_double(base)


class TestWnaf:
    """The recoding the Jacobian oracles' streams run on."""

    @pytest.mark.parametrize("width", [2, 4, 5, 7])
    def test_wnaf_reconstructs_scalar(self, width):
        for scalar in EDGE_SCALARS + [random_scalar() for _ in range(20)]:
            digits = wnaf(scalar, width)
            assert sum(d << i for i, d in enumerate(digits)) == scalar
            half = 1 << (width - 1)
            for digit in digits:
                assert digit == 0 or (digit % 2 == 1 and -half < digit < half)

    def test_wnaf_nonzero_digit_spacing(self):
        digits = wnaf(random_scalar(), 5)
        positions = [i for i, d in enumerate(digits) if d != 0]
        assert all(b - a >= 5 for a, b in zip(positions, positions[1:]))


class TestGLV:
    CONSTANTS = (ec_backend._GLV_LAMBDA, ec_backend._GLV_BETA,
                 ec_backend._GLV_A1, ec_backend._GLV_B1,
                 ec_backend._GLV_A2, ec_backend._GLV_B2)

    def test_params_derived(self):
        """The six numbers written down in the backend are the ones the
        derivation under ``tests/`` arrives at."""
        assert derive_glv() == self.CONSTANTS
        lam, beta = self.CONSTANTS[:2]
        assert pow(lam, 3, N) == 1 and lam != 1
        assert pow(beta, 3, P) == 1 and beta != 1

    def test_endomorphism_maps_points(self):
        lam, beta = self.CONSTANTS[:2]
        for k in (1, 7, 123456789):
            x, y = point_mul(k, G)
            assert point_mul(lam, (x, y)) == (beta * x % P, y)

    def test_split_congruence_and_size(self):
        """The bound ``_glv_split`` proves: ``|k1| ≤ (a1 + a2)/2``,
        ``|k2| ≤ a2/2``, both below 2¹²⁸ — what a comb's rows rely on."""
        lam, _, a1, _, a2, _ = self.CONSTANTS
        assert ((a1 + a2) // 2).bit_length() == ec_backend._GLV_HALF_BITS
        edges = EDGE_SCALARS + [0, lam, N - lam, lam * lam % N,
                                2**128 - 1, 2**128 + 1]
        for k in edges + [random_scalar() for _ in range(10_000)]:
            k1, k2 = ec_backend._glv_split(k)
            assert (k1 + k2 * lam - k) % N == 0
            assert 2 * abs(k1) <= a1 + a2 and 2 * abs(k2) <= a2, hex(k)


class TestDifferentialScalarMult:
    def test_fixed_base_edge_scalars(self):
        for scalar in EDGE_SCALARS:
            assert scalar_mult_base(scalar) == point_mul(scalar, G), scalar
        assert scalar_mult_base(0) is None
        assert scalar_mult_base(N) is None

    def test_fixed_base_comb_carry_chains(self):
        """Signed digits: one above ``2^(w−1)`` borrows from the next row,
        a run of them carries through every row into the last, and a half
        the rows cannot hold raises.  The halves are set directly (the
        split replaced), with either sign, on ``G``'s comb and a point's."""
        point = point_mul(0xC0FFEE, G)
        lam = ec_backend._GLV_LAMBDA
        for comb, start, width in [
                (ec_backend._g_comb(), G, ec_backend._G_COMB_WIDTH),
                (ec_backend._build_comb(point, POINT_COMB_WIDTH),
                 point, POINT_COMB_WIDTH)]:
            half = 1 << (width - 1)
            runs = [half - 1, half, half + 1, (1 << width) - 1,
                    sum((half + 1) << (width * i)
                        for i in range(128 // width)),
                    2**128 - 1, 2**127]
            for k1, k2 in [(run, 0) for run in runs] + [
                    (0, 2**128 - 1), (-(2**128 - 1), 2**128 - 1),
                    (-half, -(half + 1))]:
                total, count = comb_sum(comb, width, (k1, k2))
                assert total == point_mul(k1 + k2 * lam, start), \
                    (width, hex(k1), hex(k2))
                assert count <= 2 * len(comb)
            with pytest.raises(ArithmeticError):
                comb_sum(comb, width, (1 << (width * len(comb)), 0))
        # And whole scalars through signing's path.
        scalars = [127, 128, 129, 255, 256, 257, 0x80FF, 0xFF80,
                   int("80" * 32, 16), int("81" * 32, 16),
                   int("ff" * 32, 16) % N, 2**255, N - 1, N - 2]
        for scalar in scalars:
            assert scalar_mult_base(scalar) == point_mul(scalar, G), \
                hex(scalar)

    def test_fixed_base_table_geometry(self):
        """``comb[i][d − 1] = d · 2^(w·i) · P``: ``G`` at width 9 is 15 rows
        of 256 (3 840 points), a recurring point at width 4 is 33 of 8."""
        point = point_mul(0xD00D, G)
        for comb, start, width, rows in [
                (ec_backend._g_comb(), G, 9, 15),
                (ec_backend._build_comb(point, 4), point, 4, 33)]:
            assert [len(row) for row in comb] == [1 << (width - 1)] * rows
            for row_index in (0, 1, rows - 1):
                for digit in (1, 2, 3, 1 << (width - 1)):
                    assert comb[row_index][digit - 1] == \
                        point_mul(digit << (width * row_index), start)

    def test_fixed_base_bulk_1000(self):
        """The headline differential: 1000 random scalars, fast vs oracle."""
        mismatches = 0
        for _ in range(1000):
            scalar = random_scalar()
            if scalar_mult_base(scalar) != point_mul(scalar, G):
                mismatches += 1
        assert mismatches == 0

    def test_variable_point_differential(self):
        base = point_mul(0xBEEF, G)
        for scalar in EDGE_SCALARS + [random_scalar() for _ in range(30)]:
            assert scalar_mult_is(scalar, base, point_mul(scalar, base))
        assert scalar_mult_is(0, base, None)

    def test_variable_point_glv_edge_scalars(self):
        lam = ec_backend._GLV_LAMBDA
        base = point_mul(0xFACADE, G)
        scalars = [1, 2, N - 1, lam, lam * lam % N, N - lam,
                   2**127, 2**128 - 1, 2**128, 2**128 + 1,  # the GLV-split edge
                   2**255, 2**255 + 12345]
        scalars += [_RANDOM.randrange(1, 2**128) for _ in range(5)]
        scalars += [_RANDOM.randrange(2**255, N) for _ in range(5)]
        for scalar in scalars:
            expected = point_mul(scalar, base)
            assert expected == wnaf_scalar_mult(scalar, base), hex(scalar)
            assert scalar_mult_is(scalar, base, expected), hex(scalar)
        # N itself and multiples fold to the point at infinity.
        assert scalar_mult_is(N, base, None)
        assert scalar_mult_is(3 * N, base, None)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 * N),
           st.integers(min_value=1, max_value=N - 1))
    def test_variable_point_hypothesis(self, scalar, point_scalar):
        point = scalar_mult_base(point_scalar)
        assert scalar_mult_is(scalar, point, wnaf_scalar_mult(scalar, point))

    def test_variable_point_is_the_one_point_multi_scalar_case(self):
        """The product ECDH takes from ``cryptography`` is libcrypto's
        one-point sum: two implementations of ``k · Q``, one point."""
        for seed in range(4):
            own = PrivateKey.from_seed(b"one-point-%d" % seed)
            peer = PrivateKey.from_seed(b"one-point-peer-%d" % seed)
            q = (peer.public_key.x, peer.public_key.y)
            product = wnaf_scalar_mult(own.secret, q)
            assert scalar_mult_is(own.secret, q, product)
            assert shared_secret(own, peer.public_key) == \
                keccak256(b"ecdh" + product[0].to_bytes(32, "big"))

    def test_dual_scalar_differential(self):
        q = point_mul(0xC0DE, G)
        for _ in range(30):
            u1, u2 = random_scalar(), random_scalar()
            expected = point_add(point_mul(u1, G), point_mul(u2, q))
            assert double_scalar_mult_base_is(u1, u2, q, expected)

    def test_dual_scalar_degenerate_cases(self):
        # Cancellation to infinity, doubling overlap, and zero scalars.
        for u1 in (5, 77, 123456):
            assert double_scalar_mult_base_is(u1, N - u1, G, None)
        assert double_scalar_mult_base_is(7, 7, G, point_mul(14, G))
        assert double_scalar_mult_base_is(9, 0, G, point_mul(9, G))
        assert double_scalar_mult_base_is(0, 9, G, point_mul(9, G))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=N - 1))
    def test_fixed_base_hypothesis(self, scalar):
        assert scalar_mult_base(scalar) == point_mul(scalar, G)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=N - 1),
           st.integers(min_value=1, max_value=N - 1))
    def test_dual_scalar_hypothesis(self, u1, u2):
        q = point_mul(0xF00D, G)
        expected = point_add(point_mul(u1, G), point_mul(u2, q))
        assert double_scalar_mult_base_is(u1, u2, q, expected)


class TestDifferentialSignVerify:
    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=0, max_size=64))
    def test_fast_signature_verifies_under_affine_oracle(self, message):
        """Signatures from the fast path must satisfy textbook ECDSA."""
        key = PrivateKey.from_seed(b"differential")
        signature = key.sign(message)
        assert _affine_oracle_verify(
            key.public_key, message, signature.r, signature.s
        )

    def test_bulk_sign_verify_differential(self):
        """Many (key, message) pairs, fast sign, oracle + fast verify."""
        for index in range(40):
            key = PrivateKey(random_scalar())
            message = b"case-%d" % index
            signature = key.sign(message)
            assert key.public_key.verify(message, signature)
            assert _affine_oracle_verify(
                key.public_key, message, signature.r, signature.s
            )


def _affine_oracle_verify(public_key, message: bytes, r: int, s: int) -> bool:
    """Textbook ECDSA verification built purely on the affine oracle."""
    from repro.crypto.hashing import hash_to_int

    if not (1 <= r < N and 1 <= s < N):
        return False
    digest = hash_to_int(message, N)
    s_inv = pow(s, -1, N)
    point = point_add(
        point_mul(digest * s_inv % N, G),
        point_mul(r * s_inv % N, (public_key.x, public_key.y)),
    )
    return point is not None and point[0] % N == r


# -- RFC 6979 deterministic-nonce vectors ------------------------------------
#
# The widely published secp256k1 RFC 6979 test set (SHA-256 as both digest
# and HMAC hash).  The expected (r, s) are the low-s normalized values; the
# nonce k is the direct RFC 6979 output.  These anchor the backend to
# constants that were computed outside this repository.

RFC6979_VECTORS = [
    (0x1, b"Satoshi Nakamoto",
     0x8F8A276C19F4149656B280621E358CCE24F5F52542772691EE69063B74F15D15,
     0x934B1EA10A4B3C1757E2B0C017D0B6143CE3C9A7E6A4A49860D7A6AB210EE3D8,
     0x2442CE9D2B916064108014783E923EC36B49743E2FFA1C4496F01A512AAFD9E5),
    (0x1, b"All those moments will be lost in time, like tears in rain. "
          b"Time to die...",
     0x38AA22D72376B4DBC472E06C3BA403EE0A394DA63FC58D88686C611ABA98D6B3,
     0x8600DBD41E348FE5C9465AB92D23E3DB8B98B873BEECD930736488696438CB6B,
     0x547FE64427496DB33BF66019DACBF0039C04199ABB0122918601DB38A72CFC21),
    (0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364140,
     b"Satoshi Nakamoto",
     0x33A19B60E25FB6F4435AF53A3D42D493644827367E6453928554F43E49AA6F90,
     0xFD567D121DB66E382991534ADA77A6BD3106F0A1098C231E47993447CD6AF2D0,
     0x6B39CD0EB1BC8603E159EF5C20A5C8AD685A45B06CE9BEBED3F153D10D93BED5),
    (0xF8B8AF8CE3C7CCA5E300D33939540C10D45CE001B8F252BFBC57BA0342904181,
     b"Alan Turing",
     0x525A82B70E67874398067543FD84C83D30C175FDC45FDEEE082FE13B1D7CFDF1,
     0x7063AE83E7F62BBB171798131B4A0564B956930092B33B07B395615D9EC7E15C,
     0x58DFCC1E00A35E1572F366FFE34BA0FC47DB1E7189759B9FB233C5B05AB388EA),
    (0xE91671C46231F833A6406CCBEA0E3E392C76C167BAC1CB013F6F1013980455C2,
     b"There is a computer disease that anybody who works with computers "
     b"knows about. It's a very serious disease and it interferes "
     b"completely with the work. The trouble with computers is that you "
     b"'play' with them!",
     0x1F4B84C23A86A221D233F2521BE018D9318639D5B8BBD6374A8A59232D16AD3D,
     0xB552EDD27580141F3B2A5463048CB7CD3E047B97C9F98076C32DBDF85A68718B,
     0x279FA72DD19BFAE05577E06C7C0C1900C371FCD5893F7E1D56A37D30174671F6),
]


def _rfc6979_nonce(secret: int, h1: bytes) -> int:
    """RFC 6979 section 3.2 with HMAC-SHA256, for the vector cross-check."""
    v = b"\x01" * 32
    k = b"\x00" * 32
    secret_octets = secret.to_bytes(32, "big")
    h1_octets = (int.from_bytes(h1, "big") % N).to_bytes(32, "big")
    k = hmac.new(k, v + b"\x00" + secret_octets + h1_octets,
                 hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + secret_octets + h1_octets,
                 hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < N:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


class TestRFC6979Vectors:
    @pytest.mark.parametrize("secret, message, k_expected, r_expected, "
                             "s_expected", RFC6979_VECTORS)
    def test_vector(self, secret, message, k_expected, r_expected,
                    s_expected):
        h1 = hashlib.sha256(message).digest()
        digest = int.from_bytes(h1, "big") % N
        nonce = _rfc6979_nonce(secret, h1)
        assert nonce == k_expected
        # Raw ECDSA over the backend's fixed-base multiplication.
        nonce_point = scalar_mult_base(nonce)
        r = nonce_point[0] % N
        assert r == r_expected
        s = pow(nonce, -1, N) * (digest + r * secret) % N
        assert min(s, N - s) == s_expected  # vectors publish low-s
        # And libcrypto's one-pair sum recovers the nonce point (negated
        # when the low-s flip negated s).
        s_low = min(s, N - s)
        s_inv = pow(s_low, -1, N)
        u1 = digest * s_inv % N
        u2 = r * s_inv % N
        public_point = scalar_mult_base(secret)
        x, y = nonce_point
        assert double_scalar_mult_base_is(
            u1, u2, public_point, (x, y if s_low == s else P - y))
