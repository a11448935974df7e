"""Pippenger's bucket path against the Strauss path and the affine oracle.

``multi_scalar_mult`` sends ``_BUCKET_MIN_POINTS`` or more one-shot points
through ``_bucket_events`` and fewer through per-point wNAF tables.  Both
must name the same group element for every input, so each test here
evaluates one ``(base_scalar, pairs, one_shot_pairs)`` on both sides of
that constant — and, where the input is small enough for it, against sums
of the affine ``point_mul`` of :mod:`tests.crypto.affine_oracle`.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
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


def _strauss(base_scalar, pairs, one_shot):
    with mock.patch.object(ec_backend, "_BUCKET_MIN_POINTS", 10**9):
        return multi_scalar_mult(base_scalar, pairs, one_shot)


def _buckets(base_scalar, pairs, one_shot):
    with mock.patch.object(ec_backend, "_BUCKET_MIN_POINTS", 1):
        return multi_scalar_mult(base_scalar, pairs, one_shot)


def _oracle(base_scalar, terms):
    total = point_mul(base_scalar, G)
    for scalar, point in terms:
        total = point_add(total, point_mul(scalar, point))
    return total


class TestBucketsAgainstStrauss:
    @settings(max_examples=20, deadline=None)
    @given(scalars, one_shot_terms(st.sampled_from([63, 64, 65, 150])))
    def test_default_selection_equals_strauss_around_the_boundary(
            self, base_scalar, one_shot):
        pairs = [(N - 5, KEYS[0]), (2**200 + 9, KEYS[1])]
        assert multi_scalar_mult(base_scalar, pairs, one_shot) == \
            _strauss(base_scalar, pairs, one_shot)

    @pytest.mark.parametrize("count, bucketed", [(63, False), (64, True),
                                                 (65, True)])
    def test_selection_is_by_live_one_shot_count(self, monkeypatch, count,
                                                 bucketed):
        calls = []
        real = ec_backend._bucket_events

        def spy(pairs):
            calls.append(len(pairs))
            return real(pairs)

        monkeypatch.setattr(ec_backend, "_bucket_events", spy)
        one_shot = [(index + 1, POOL[index % len(POOL)])
                    for index in range(count)]
        # Dead terms (zero scalar, infinity) do not count toward the choice.
        multi_scalar_mult(7, [], one_shot + [(0, POOL[0]), (5, None)])
        assert calls == ([count] if bucketed else [])

    @settings(max_examples=30, deadline=None)
    @given(scalars, st.lists(scalars, max_size=2),
           one_shot_terms(st.integers(1, 10)))
    def test_small_inputs_equal_strauss_and_the_affine_oracle(
            self, base_scalar, key_scalars, one_shot):
        pairs = list(zip(key_scalars, KEYS))
        expected = _oracle(base_scalar, pairs + one_shot)
        assert _buckets(base_scalar, pairs, one_shot) == expected
        assert _strauss(base_scalar, pairs, one_shot) == expected

    def test_wide_batch_of_batch_verifier_shape(self):
        # 300 odd 128-bit coefficients over distinct points, two full-length
        # key terms and a base scalar: what one block hands the engine.
        points = [scalar_mult_base(_RANDOM.randrange(1, N))
                  for _ in range(300)]
        one_shot = [(_RANDOM.randrange(1, 2**128) | 1, point)
                    for point in points]
        pairs = [(_RANDOM.randrange(1, N), key) for key in KEYS[:2]]
        base_scalar = _RANDOM.randrange(1, N)
        assert multi_scalar_mult(base_scalar, pairs, one_shot) == \
            _strauss(base_scalar, pairs, one_shot)


class TestBucketEdgeCases:
    def test_point_and_its_negative_cancel_in_every_bucket(self):
        point = POOL[0]
        for scalar in (1, 2**128 - 1, N - 1):
            terms = [(scalar, point), (scalar, _negate(point))]
            assert ec_backend._bucket_events(terms) == []
            assert _buckets(0, [], terms) is None
            assert _buckets(9, [], terms) == point_mul(9, G)

    def test_same_point_twice_doubles_inside_its_buckets(self):
        # Equal scalars have equal digits, so in every window the second
        # copy meets the first in the same bucket: P + P, not a chord.
        point = POOL[1]
        scalar = 2**128 - 12345
        assert _buckets(0, [], [(scalar, point), (scalar, point)]) == \
            point_mul(2 * scalar, point)

    def test_all_terms_cancel_with_no_other_stream(self):
        terms = [(k, POOL[k]) for k in range(1, 40)]
        terms += [(k, _negate(POOL[k])) for k in range(1, 40)]
        assert len(terms) >= ec_backend._BUCKET_MIN_POINTS
        assert multi_scalar_mult(0, [], terms) is None
        assert multi_scalar_mult(0, [(3, KEYS[0])], terms) == \
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
