"""Differential tests for the fast EC backend against the affine oracle.

The textbook affine implementation in :mod:`tests.crypto.affine_oracle`
(:func:`point_add` / :func:`point_mul`) is deliberately naive and shares no
code with :mod:`repro.crypto.ec_backend`; everything here cross-checks the
optimized Jacobian/wNAF/GLV paths against it, plus externally published
secp256k1 test vectors (RFC 6979 deterministic nonces), so a bug would have
to appear identically in two independent implementations *and* the published
constants to slip through.
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
    double_scalar_mult_base,
    jacobian_add,
    jacobian_add_affine,
    jacobian_double,
    scalar_mult,
    scalar_mult_base,
    to_affine,
    to_jacobian,
    wnaf,
)
from repro.crypto.ecdsa import PrivateKey
from tests.crypto.affine_oracle import point_add, point_mul
from tests.crypto.glv_derivation import derive_glv

G = (GX, GY)

# Deterministic scalar pool shared by the bulk differential tests.
_RANDOM = random.Random(0xEC0FFEE)
EDGE_SCALARS = [1, 2, 3, N - 1, N - 2, N // 2, N // 2 + 1, 2**128, 2**255 % N]


def random_scalar() -> int:
    return _RANDOM.randrange(1, N)


def _wnaf_scalar_mult(scalar, point):
    """``ec_backend.scalar_mult`` as of 62b3626: one full-length width-5 wNAF
    stream, ~256 doublings, no GLV split.  Kept here as a second oracle for
    the multi-scalar engine that replaced it."""
    scalar %= N
    if scalar == 0 or point is None:
        return None
    table = batch_to_affine(ec_backend._odd_multiples(point, 5))
    accumulator = None
    for digit in reversed(wnaf(scalar, 5)):
        accumulator = jacobian_double(accumulator)
        if digit > 0:
            accumulator = jacobian_add_affine(accumulator, table[digit >> 1])
        elif digit < 0:
            x, y = table[(-digit) >> 1]
            accumulator = jacobian_add_affine(accumulator, (x, P - y))
    return to_affine(accumulator)


class TestJacobianPrimitives:
    def test_round_trip_affine_jacobian(self):
        point = point_mul(1234567, G)
        assert to_affine(to_jacobian(point)) == point

    def test_double_matches_oracle(self):
        point = point_mul(987654321, G)
        assert to_affine(jacobian_double(to_jacobian(point))) == \
            point_add(point, point)

    def test_add_matches_oracle(self):
        p1 = point_mul(1111, G)
        p2 = point_mul(2222, G)
        assert to_affine(jacobian_add(to_jacobian(p1), to_jacobian(p2))) == \
            point_add(p1, p2)

    def test_mixed_add_matches_oracle(self):
        p1 = point_mul(31337, G)
        p2 = point_mul(271828, G)
        assert to_affine(jacobian_add_affine(to_jacobian(p1), p2)) == \
            point_add(p1, p2)

    def test_add_inverse_is_infinity(self):
        point = point_mul(42, G)
        negated = (point[0], P - point[1])
        assert jacobian_add(to_jacobian(point), to_jacobian(negated)) is None

    def test_add_equal_points_doubles(self):
        point = point_mul(7, G)
        assert to_affine(jacobian_add(to_jacobian(point), to_jacobian(point))) \
            == point_mul(14, G)

    def test_infinity_identities(self):
        point = to_jacobian(point_mul(5, G))
        assert jacobian_add(None, point) == point
        assert jacobian_add(point, None) == point
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


class TestWnaf:
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
        lam = ec_backend._GLV_LAMBDA
        for k in EDGE_SCALARS + [random_scalar() for _ in range(50)]:
            k1, k2 = ec_backend._glv_split(k)
            assert (k1 + k2 * lam - k) % N == 0
            assert max(abs(k1), abs(k2)).bit_length() <= 135


class TestDifferentialScalarMult:
    def test_fixed_base_edge_scalars(self):
        for scalar in EDGE_SCALARS:
            assert scalar_mult_base(scalar) == point_mul(scalar, G), scalar
        assert scalar_mult_base(0) is None
        assert scalar_mult_base(N) is None

    def test_fixed_base_comb_carry_chains(self):
        """Signed 8-bit digits: a byte above 128 borrows from the next row,
        a run of them carries through every row to the 33rd."""
        scalars = [127, 128, 129, 255, 256, 257, 0x80FF, 0xFF80,
                   int("80" * 32, 16), int("81" * 32, 16),
                   int("ff" * 32, 16) % N, 2**255, N - 1, N - 2]
        for scalar in scalars:
            assert scalar_mult_base(scalar) == point_mul(scalar, G), \
                hex(scalar)

    def test_fixed_base_table_geometry(self):
        table = ec_backend._fixed_base_table()
        assert [len(row) for row in table] == [128] * 33
        for row_index in (0, 1, 32):
            for digit in (1, 2, 3, 128):
                assert table[row_index][digit - 1] == \
                    point_mul(digit << (8 * row_index), G)

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
            assert scalar_mult(scalar, base) == point_mul(scalar, base)
        assert scalar_mult(5, None) is None
        assert scalar_mult(0, base) is None

    def test_variable_point_glv_edge_scalars(self):
        lam = ec_backend._GLV_LAMBDA
        base = point_mul(0xFACADE, G)
        scalars = [1, 2, N - 1, lam, lam * lam % N, N - lam,
                   2**127, 2**128 - 1, 2**140, 2**140 + 1,  # the GLV-skip edge
                   2**255, 2**255 + 12345]
        scalars += [_RANDOM.randrange(1, 2**128) for _ in range(5)]
        scalars += [_RANDOM.randrange(2**255, N) for _ in range(5)]
        for scalar in scalars:
            got = scalar_mult(scalar, base)
            assert got == point_mul(scalar, base), hex(scalar)
            assert got == _wnaf_scalar_mult(scalar, base), hex(scalar)
        # N itself and multiples fold to the point at infinity.
        assert scalar_mult(N, base) is None
        assert scalar_mult(3 * N, base) is None

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 * N),
           st.integers(min_value=1, max_value=N - 1))
    def test_variable_point_hypothesis(self, scalar, point_scalar):
        point = scalar_mult_base(point_scalar)
        assert scalar_mult(scalar, point) == _wnaf_scalar_mult(scalar, point)

    def test_variable_point_is_the_one_point_multi_scalar_case(
            self, monkeypatch):
        calls = []
        real = ec_backend.multi_scalar_mult

        def spy(base_scalar, pairs, *rest):
            calls.append((base_scalar, pairs))
            return real(base_scalar, pairs, *rest)

        monkeypatch.setattr(ec_backend, "multi_scalar_mult", spy)
        base = point_mul(77, G)
        assert scalar_mult(9, base) == point_mul(9 * 77, G)
        assert calls == [(0, [(9, base)])]

    def test_dual_scalar_differential(self):
        q = point_mul(0xC0DE, G)
        for _ in range(30):
            u1, u2 = random_scalar(), random_scalar()
            expected = point_add(point_mul(u1, G), point_mul(u2, q))
            assert double_scalar_mult_base(u1, u2, q) == expected

    def test_dual_scalar_degenerate_cases(self):
        # Cancellation to infinity, doubling overlap, and zero scalars.
        for u1 in (5, 77, 123456):
            assert double_scalar_mult_base(u1, N - u1, G) is None
        assert double_scalar_mult_base(7, 7, G) == point_mul(14, G)
        assert double_scalar_mult_base(9, 0, G) == point_mul(9, G)
        assert double_scalar_mult_base(0, 9, G) == point_mul(9, G)

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
        assert double_scalar_mult_base(u1, u2, q) == expected


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
        # And the backend's Shamir dual-mul recovers the nonce point.
        s_low = min(s, N - s)
        s_inv = pow(s_low, -1, N)
        u1 = digest * s_inv % N
        u2 = r * s_inv % N
        public_point = scalar_mult_base(secret)
        recovered = double_scalar_mult_base(u1, u2, public_point)
        assert recovered is not None and recovered[0] % N == r
