"""Pippenger's bucket path against the Strauss oracle and the affine one.

``multi_scalar_mult`` sends every term but ``G``'s through
``_bucket_events``, a key term as its two GLV halves.  Each test here
evaluates one ``(base_scalar, terms)`` on the engine and on
:func:`tests.crypto.jacobian_oracle.strauss_msm` — the interleaved wNAF
streams narrow batch equations ran on until every equation became one
bucket sum — and, where the input is small enough for it, against sums of
the affine ``point_mul`` of :mod:`tests.crypto.affine_oracle`.  The bucket
kernel itself must return exactly the events of its Jacobian form in
:mod:`tests.crypto.jacobian_oracle`.  Which batches reach the equation at
all is ``batch_verify``'s cost rule, pinned here to count signatures.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.crypto import ec_backend
from repro.crypto.ec_backend import (
    GX,
    GY,
    N,
    P,
    multi_scalar_mult,
    scalar_mult_base,
)
from tests.crypto.affine_oracle import point_add, point_mul
from repro.crypto.ecdsa import PrivateKey, Signature, batch_verify
from tests.crypto.jacobian_oracle import (
    bucket_events,
    bucket_width,
    strauss_msm,
)
from tests.crypto.rule import WIDTH

#: Every batch here is sized against a pinned rule (tests/crypto/rule.py).
pytestmark = pytest.mark.usefixtures("equation_from_32")

G = (GX, GY)

_RANDOM = random.Random(0xB0C4E7)
POOL = [scalar_mult_base(_RANDOM.randrange(1, N)) for _ in range(48)]
KEYS = [scalar_mult_base(_RANDOM.randrange(1, N)) for _ in range(3)]

EDGE_SCALARS = [0, 1, 2, N - 1, N - 2, N, 2**127, 2**128 - 1, 2**128,
                2**255, 0x80 * (2**256 // 255) % N]

scalars = st.one_of(
    st.sampled_from(EDGE_SCALARS),
    st.integers(1, 2**128 - 1),
    st.integers(2**255, N - 1),
)


def _negate(point):
    return (point[0], P - point[1])


def _phi(point):
    return (ec_backend._GLV_BETA * point[0] % P, point[1])


@st.composite
def one_shot_terms(draw, counts):
    """``count`` terms over a 48-point pool, so duplicates (the doubling
    branch) and ``P`` beside ``−P`` (cancellation) turn up constantly."""
    count = draw(counts)
    terms = []
    for _ in range(count):
        point = POOL[draw(st.integers(0, len(POOL) - 1))]
        if draw(st.booleans()):
            point = _negate(point)
        terms.append((draw(scalars), point))
    return terms


def _strauss(base_scalar, terms):
    return strauss_msm([(base_scalar, G)] + terms)


@lru_cache(maxsize=None)
def _signed(index):
    key = PrivateKey.from_seed(b"bucket-rule-%d" % index)
    return key.public_key, b"m%d" % index, key.sign(b"m%d" % index)


def _oracle(base_scalar, terms):
    total = point_mul(base_scalar, G)
    for scalar, point in terms:
        total = point_add(total, point_mul(scalar, point))
    return total


class TestBucketsAgainstStrauss:
    @settings(max_examples=20, deadline=None)
    @given(scalars, one_shot_terms(st.sampled_from(
        [WIDTH + offset for offset in (-1, 0, 1)]
        + [150])))
    def test_default_selection_equals_strauss_around_the_boundary(
            self, base_scalar, one_shot):
        terms = [(N - 5, KEYS[0]), (2**200 + 9, KEYS[1])] + one_shot
        assert multi_scalar_mult(base_scalar, terms) == \
            _strauss(base_scalar, terms)

    @pytest.mark.parametrize("offset, bucketed",
                             [(-1, False), (0, True), (1, True)],
                             ids=["below", "at", "above"])
    def test_selection_is_by_live_one_shot_count(self, monkeypatch, offset,
                                                 bucketed):
        # batch_verify counts the signatures an equation would carry: two
        # malformed scalars do not count.
        count = WIDTH + offset
        items = [_signed(index) for index in range(count + 2)]
        for index, (r, s) in ((0, (N, 1)), (1, (1, N - 1))):
            public_key, message, signature = items[index]
            items[index] = (public_key, message,
                            Signature(r, s, signature.v))
        calls = []
        real = ec_backend._bucket_events

        def spy(pairs):
            calls.append(len(pairs))
            return real(pairs)

        monkeypatch.setattr(ec_backend, "_bucket_events", spy)
        assert batch_verify(items) == [False, False] + [True] * count
        assert len(calls) == int(bucketed)

    @settings(max_examples=30, deadline=None)
    @given(scalars, st.lists(scalars, max_size=2),
           one_shot_terms(st.integers(1, 10)))
    def test_small_inputs_equal_strauss_and_the_affine_oracle(
            self, base_scalar, key_scalars, one_shot):
        terms = list(zip(key_scalars, KEYS)) + one_shot
        expected = _oracle(base_scalar, terms)
        assert multi_scalar_mult(base_scalar, terms) == expected
        assert _strauss(base_scalar, terms) == expected

    def test_wide_batch_of_batch_verifier_shape(self):
        # 300 odd 128-bit coefficients over distinct points, 64 full-length
        # key terms and a base scalar: what one chain_bulk block hands the
        # engine.
        points = [scalar_mult_base(_RANDOM.randrange(1, N))
                  for _ in range(300)]
        one_shot = [(_RANDOM.randrange(1, 2**128) | 1, point)
                    for point in points]
        pairs = [(_RANDOM.randrange(2**255, N), scalar_mult_base(
            _RANDOM.randrange(1, N))) for _ in range(64)]
        base_scalar = _RANDOM.randrange(1, N)
        assert multi_scalar_mult(base_scalar, pairs + one_shot) == \
            _strauss(base_scalar, pairs + one_shot)

    @pytest.mark.parametrize("count, kind", [(32, "bucket"), (0, "base")])
    def test_the_counter_names_the_path(self, count, kind):
        counter = ec_backend._SCALAR_MULTS
        before = {name: counter.labels(kind=name).value
                  for name in ("base", "bucket")}
        multi_scalar_mult(7, [(index + 1, POOL[index])
                              for index in range(count)])
        after = {name: counter.labels(kind=name).value
                 for name in ("base", "bucket")}
        assert after == {**before, kind: before[kind] + 1}


def _fill_rounds(pairs):
    """Pairwise rounds the fullest bucket needs: ⌈log₂ of its size⌉, from
    the same signed-digit recoding the kernel makes."""
    width = bucket_width(len(pairs))
    full, half = 1 << width, 1 << (width - 1)
    sizes = {}
    for k, _ in pairs:
        window = 0
        while k:
            digit = k & (full - 1)
            k >>= width
            if digit > half:
                digit, k = full - digit, k + 1
            if digit:
                sizes[window, digit] = sizes.get((window, digit), 0) + 1
            window += 1
    return (max(sizes.values()) - 1).bit_length(), half


class TestBucketKernel:
    @settings(max_examples=25, deadline=None)
    @given(one_shot_terms(st.integers(1, 90)))
    def test_events_equal_the_jacobian_oracle(self, terms):
        live = [(k % N, point) for k, point in terms if k % N]
        assume(live)
        assert ec_backend._bucket_events(live) == bucket_events(live)

    def test_512_points_take_one_inversion_per_round(self, curve_ops):
        points = [scalar_mult_base(_RANDOM.randrange(1, N))
                  for _ in range(512)]
        pairs = [(_RANDOM.randrange(1, 2**128) | 1, point)
                 for point in points]
        fill_rounds, half = _fill_rounds(pairs)
        before = curve_ops["inverse_mod_p"]
        events = ec_backend._bucket_events(pairs)
        # One per fill round, one per bucket index (a window's running sum
        # and total share it) and one for the last running sum.
        assert curve_ops["inverse_mod_p"] - before <= \
            fill_rounds + half + 1
        assert events == bucket_events(pairs)


class TestBucketEdgeCases:
    def test_point_and_its_negative_cancel_in_every_bucket(self):
        point = POOL[0]
        for scalar in (1, 2**128 - 1, N - 1):
            terms = [(scalar, point), (scalar, _negate(point))]
            assert ec_backend._bucket_events(terms) == []
            assert multi_scalar_mult(0, terms) is None
            assert multi_scalar_mult(9, terms) == point_mul(9, G)

    def test_same_point_twice_doubles_inside_its_buckets(self):
        # Equal scalars have equal digits, so in every window the second
        # copy meets the first in the same bucket: P + P, not a chord.
        point = POOL[1]
        scalar = 2**128 - 12345
        assert multi_scalar_mult(0, [(scalar, point), (scalar, point)]) == \
            point_mul(2 * scalar, point)

    def test_all_terms_cancel_with_no_other_stream(self):
        terms = [(k, POOL[k]) for k in range(1, 40)]
        terms += [(k, _negate(POOL[k])) for k in range(1, 40)]
        assert multi_scalar_mult(0, terms) is None
        assert multi_scalar_mult(0, [(3, KEYS[0])] + terms) == \
            point_mul(3, KEYS[0])

    def test_carry_runs_through_every_window(self):
        # Digits of all ones borrow from window to window up to the extra
        # top window; the width follows the term count, so try several.
        point = POOL[2]
        for count in (1, 64, 300):
            for scalar in (2**128 - 1, N - 1, 2**255):
                terms = [(scalar, point)] * count
                events = ec_backend._bucket_events(terms)
                total = None
                for bit, addend in events:
                    total = point_add(total, point_mul(1 << bit, addend))
                assert total == point_mul(scalar * count, point)


def _key_scalar(wanted):
    """The first scalar of a fixed stream whose GLV halves' signs match
    ``wanted`` — ``(k1 < 0, k2 < 0)``."""
    stream = random.Random(0x6E1F)
    while True:
        k = stream.randrange(2**255, N)
        k1, k2 = ec_backend._glv_split(k)
        if (k1 < 0, k2 < 0) == wanted:
            return k, k1, k2


# Small scalars over distinct points: as many terms as the narrowest
# equation, each in window 0 only, so a key half and a nonce term that
# share a digit in any higher window meet each other alone in that bucket.
FILLERS = [(index + 1, POOL[index]) for index in range(32)]


class TestKeyHalvesInBuckets:
    """An equation's key terms join the buckets as GLV halves ``(|k1|,
    ±Q)`` and ``(|k2|, ±φ(Q))``; each case holds the engine to the
    Strauss oracle and to the affine one."""

    @staticmethod
    def _check(base_scalar, pairs, one_shot):
        expected = _oracle(base_scalar, pairs + one_shot)
        assert multi_scalar_mult(base_scalar, pairs + one_shot) == expected
        assert _strauss(base_scalar, pairs + one_shot) == expected
        return expected

    def test_a_scalar_below_2_128_has_no_k2_half(self):
        for scalar in (1, 2**64 + 3, 2**127 + 5):
            assert ec_backend._glv_split(scalar)[1] == 0
            self._check(11, [(scalar, KEYS[0])], FILLERS)

    @pytest.mark.parametrize("wanted", [(True, False), (False, True),
                                        (True, True)],
                             ids=["k1", "k2", "both"])
    def test_negative_halves_fold_their_sign_into_y(self, wanted):
        scalar, _, _ = _key_scalar(wanted)
        self._check(11, [(scalar, KEYS[1])], FILLERS)

    def test_a_key_equal_to_a_nonce_point_doubles_in_the_buckets(self):
        scalar, k1, _ = _key_scalar((False, False))
        self._check(5, [(scalar, KEYS[0])], FILLERS + [(k1, KEYS[0])])

    def test_a_key_against_its_negated_nonce_point_cancels(self):
        scalar, k1, k2 = _key_scalar((False, False))
        key = KEYS[0]
        # k·Q − k1·Q − k2·φ(Q) = 𝒪: only the fillers are left.
        total = self._check(0, [(scalar, key)], FILLERS + [
            (k1, _negate(key)), (k2, _negate(_phi(key)))])
        assert total == _oracle(0, FILLERS)

    def test_a_key_whose_phi_is_a_nonce_point(self):
        scalar, _, k2 = _key_scalar((False, False))
        self._check(3, [(scalar, KEYS[2])], FILLERS + [(k2, _phi(KEYS[2]))])

    def test_the_same_key_twice_in_pairs(self):
        scalar, _, _ = _key_scalar((True, False))
        pairs = [(scalar, KEYS[1]), (scalar, KEYS[1]), (N - scalar, KEYS[1])]
        total = self._check(9, pairs, FILLERS)
        assert total == _oracle(9, [(scalar, KEYS[1])] + FILLERS)
