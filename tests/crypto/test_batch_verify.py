"""Batch signature verification: multi-scalar differential + verdicts.

Two layers are under test here.  ``ec_backend.multi_scalar_mult`` is checked
differentially against the affine oracle in :mod:`tests.crypto.affine_oracle`
(sums of ``point_mul`` results).  ``ecdsa.batch_verify`` is checked for
*agreement with the individual verifier* — the authoritative oracle — on
all-good batches, corrupted batches, malformed scalars and flipped parity
bits.  Every test runs under a rule pinned to count signatures
(``tests/crypto/rule.py``): a batch under 32 never reaches the equation, so
every such check runs on 32 or more, and the routing is pinned at 31/32.
What a batch costs is stated with :func:`tests.crypto.rule.counted`: one
equation when it holds, and otherwise the OpenSSL checks of every item
after it.  The single-corruption sweep runs ≥20 seeds with exactly one
corrupted signature each, asserting only that signature is rejected; the
Hypothesis sweep draws batches from few keys (so the per-key folded term
is always exercised) with up to three corruptions of seven kinds, under
both pinned arms.
"""

from __future__ import annotations

import random
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ec_backend, ecdsa
from repro.crypto.ec_backend import GX, GY, N, multi_scalar_mult
from repro.crypto.ecdsa import (
    PrivateKey,
    PublicKey,
    Signature,
    _batch_equation_holds,
    _recover_nonce_point,
    batch_verify,
)
from tests.crypto.affine_oracle import point_add, point_mul
from tests.crypto.rule import cost, counted, equation_from


#: Every batch here is sized against a pinned rule (tests/crypto/rule.py).
pytestmark = pytest.mark.usefixtures("equation_from_32")

G = (GX, GY)

_RANDOM = random.Random(0xBA7C4)


def random_scalar() -> int:
    return _RANDOM.randrange(1, N)


def _oracle_msm(base_scalar, pairs):
    total = point_mul(base_scalar, G)
    for scalar, point in pairs:
        total = point_add(total, point_mul(scalar, point))
    return total


class TestMultiScalarMult:
    def test_differential_against_oracle(self):
        points = [point_mul(k, G) for k in (0xACE, 0xBEEF, 0xC0DE, 0xF00D)]
        for _ in range(10):
            base = random_scalar()
            pairs = [(random_scalar(), point) for point in points]
            assert multi_scalar_mult(base, pairs) == _oracle_msm(base, pairs)

    def test_degenerate_inputs(self):
        q = point_mul(77, G)
        assert multi_scalar_mult(5, []) == point_mul(5, G)
        assert multi_scalar_mult(0, []) is None
        assert multi_scalar_mult(0, [(9, q)]) == point_mul(9 * 77, G)
        assert multi_scalar_mult(3, [(0, q), (N, q), (4, None)]) == \
            point_mul(3, G)

    def test_cancellation_to_infinity(self):
        q = point_mul(7, G)
        # 7·21·G − 3·49·G = 0 arranged as base + two point streams.
        assert multi_scalar_mult(
            147, [(N - 21, q), (0, q)]
        ) is None

    def test_single_pair_matches_double_mult(self):
        q = point_mul(0xDEAD, G)
        u1, u2 = random_scalar(), random_scalar()
        assert multi_scalar_mult(u1, [(u2, q)]) == \
            point_add(point_mul(u1, G), point_mul(u2, q))

    def test_wide_batch(self):
        pairs = [(random_scalar(), point_mul(random_scalar(), G))
                 for _ in range(32)]
        base = random_scalar()
        assert multi_scalar_mult(base, pairs) == _oracle_msm(base, pairs)

    def test_one_shot_pairs_are_terms_of_the_same_sum(self):
        # A nonce coefficient (≤ 128 bits) joins the buckets whole, a key
        # scalar as its two GLV halves: any mix of the two is one sum.
        scalars = [random_scalar() for _ in range(6)]
        points = [point_mul(random_scalar(), G) for _ in range(6)]
        base = random_scalar()
        for cut in range(len(points) + 1):
            terms = [(k >> 128 if index < cut else k, q)
                     for index, (k, q) in enumerate(zip(scalars, points))]
            assert multi_scalar_mult(base, terms) == \
                _oracle_msm(base, terms)


def _make_batch(seed: int, size: int):
    """Deterministic (key, message, signature) triples for one seed."""
    items = []
    for index in range(size):
        key = PrivateKey.from_seed(b"batch-%d-%d" % (seed, index))
        message = b"payload-%d-%d" % (seed, index)
        items.append((key.public_key, message, key.sign(message)))
    return items


@lru_cache(maxsize=None)
def _signed(key_index: int, message_index: int):
    """One of 4 keys × 64 messages, signed once per process."""
    key = PrivateKey.from_seed(b"fold-key-%d" % key_index)
    message = b"fold-msg-%d-%d" % (key_index, message_index)
    return key.public_key, message, key.sign(message)


CORRUPTIONS = ("bad_r", "bad_s", "flip_v", "swap_key", "bad_message",
               "high_s", "non_residue_r")

#: An r no nonce point has: 5³ + 7 is a quadratic non-residue mod p.
NON_RESIDUE_R = 5


def _corrupt_item(item, kind: str, other_key: PublicKey):
    public_key, message, sig = item
    if kind == "bad_r":
        return public_key, message, Signature(sig.r % (N - 1) + 1, sig.s,
                                              sig.v)
    if kind == "bad_s":
        return public_key, message, Signature(sig.r, sig.s % (N // 2) + 1,
                                              sig.v)
    if kind == "flip_v":
        return public_key, message, Signature(sig.r, sig.s, sig.v ^ 1)
    if kind == "high_s":
        return public_key, message, Signature(sig.r, N - sig.s, sig.v)
    if kind == "non_residue_r":
        return public_key, message, Signature(NON_RESIDUE_R, sig.s, sig.v)
    if kind == "swap_key":
        return other_key, message, sig
    return public_key, message + b"!", sig


@st.composite
def _batches(draw):
    """(items, corrupted indices → kind) from 1–4 keys, 32–48 signatures:
    wide enough for the equation."""
    keys = draw(st.integers(1, 4))
    size = draw(st.integers(32, 48))
    slots = draw(st.lists(
        st.tuples(st.integers(0, keys - 1), st.integers(0, 63)),
        min_size=size, max_size=size, unique=True,
    ))
    items = [_signed(*slot) for slot in slots]
    victims = draw(st.lists(st.integers(0, size - 1), max_size=3,
                            unique=True))
    corrupted = {}
    for victim in victims:
        kind = draw(st.sampled_from(CORRUPTIONS))
        # Swap to another key *of this batch* so the forged item joins an
        # existing key group's folded term.
        others = [item[0] for item in items if item[0] != items[victim][0]]
        if kind == "swap_key" and not others:
            kind = "bad_r"
        items[victim] = _corrupt_item(items[victim], kind,
                                      others[0] if others else None)
        corrupted[victim] = kind
    return items, corrupted


class TestKeyFoldedEquation:
    """Entries sharing a public key share one ``(Σ aᵢ·u2ᵢ)·Q`` term."""

    @settings(max_examples=40, deadline=None)
    @given(_batches())
    def test_agrees_with_individual_verifier_on_generated_batches(
            self, batch):
        # On one core, and with the equation's terms cut into two and
        # three parts, the first summed here and the rest by the workers.
        for cores in (1, 2, 3):
            with mock.patch.object(ecdsa, "_CORES", cores):
                self._agrees_with_individual_verifier(*batch)

    @staticmethod
    def _agrees_with_individual_verifier(items, corrupted):
        expected = [key.verify(message, sig) for key, message, sig in items]
        # A flipped parity bit is still a valid signature (``verify``
        # ignores v); every other corruption is not.
        assert expected == [corrupted.get(index, "flip_v") == "flip_v"
                            for index in range(len(items))]
        # The equation runs when the rule prices its well-formed items to
        # it and each of their nonce points resolves (a non-residue r, or
        # a corrupted r that happens to be one, leaves nothing to equate).
        # It holds when the only corruptions are high-s scalars, refused
        # beside it; otherwise every item is checked.
        live = [sig for _, _, sig in items
                if 1 <= sig.r < N and 1 <= sig.s <= N // 2]
        resolves = all(_recover_nonce_point(sig.r, sig.v) is not None
                       for sig in live)
        holds = set(corrupted.values()) <= {"high_s"}
        for width in (32, len(items) + 1):
            with equation_from(width), counted() as spent:
                assert batch_verify(items) == expected
            if len(live) < width or not resolves:
                assert cost(spent) == (0, len(items))
            else:
                assert cost(spent) == (1, 0 if holds else len(items))

    def test_one_bad_signature_among_a_senders_good_ones(self):
        items = [_signed(0, index) for index in range(64)]
        items[17] = _corrupt_item(items[17], "bad_s", None)
        with counted() as spent:
            assert batch_verify(items) == [i != 17 for i in range(64)]
        # The equation fails and names no culprit: the 64 checks it would
        # have replaced decide the batch.
        assert cost(spent) == (1, 64)

    def test_a_wide_forged_batch_is_one_equation_then_the_checks(self):
        # 5 keys × 8 signatures, interleaved, one of key 2's forged: the
        # one equation is wide (40 nonce points, 5 key terms); when it
        # fails, the 40 checks decide.
        items = [_signed(key, message) for message in range(8)
                 for key in range(5)]
        forged = 3 * 5 + 2
        items[forged] = _corrupt_item(items[forged], "bad_message", None)
        with counted() as spent:
            got = batch_verify(items)
        assert got == [key.verify(message, sig)
                       for key, message, sig in items]
        assert got == [index != forged for index in range(40)]
        assert spent["equations"] == [40 + 5]
        assert cost(spent) == (1, 40)

    def test_single_key_batch_is_one_key_term(self, monkeypatch):
        # Seen where the caller hands the equation out: all of its terms,
        # whichever of the verifier's cores sums each part.
        seen = []
        real = ecdsa._equation_sum

        def spy(base_scalar, terms):
            seen.append((sum(k.bit_length() > 128 for k, _ in terms),
                         len(terms)))
            return real(base_scalar, terms)

        items = [_signed(k, m) for k in range(3) for m in range(11)]
        monkeypatch.setattr(ecdsa, "_equation_sum", spy)
        assert batch_verify(items) == [True] * 33
        # Three folded key scalars, full length, beside 33 nonce terms.
        assert seen == [(3, 3 + 33)]

    def test_key_term_folding_to_zero(self, monkeypatch):
        # With every coefficient forced to 1, u2 and n − u2 under one key
        # fold to 0·Q: the key drops out of the sum and the equation must
        # still hold exactly when each entry's own point equation does.
        monkeypatch.setattr(ecdsa, "keccak256", lambda data: bytes(32))
        q = point_mul(0xFEED, G)
        u1_a, u1_b, u2 = random_scalar(), random_scalar(), random_scalar()
        r_a = point_add(point_mul(u1_a, G), point_mul(u2, q))
        r_b = point_add(point_mul(u1_b, G), point_mul(N - u2, q))
        assert _batch_equation_holds([(u1_a, u2, q, r_a),
                                      (u1_b, N - u2, q, r_b)])
        wrong = point_add(r_b, G)
        assert not _batch_equation_holds([(u1_a, u2, q, r_a),
                                          (u1_b, N - u2, q, wrong)])


class TestRecoverNoncePoint:
    def test_recovers_signers_point(self):
        for index in range(10):
            key = PrivateKey.from_seed(b"recover-%d" % index)
            message = b"msg-%d" % index
            signature = key.sign(message)
            point = _recover_nonce_point(signature.r, signature.v)
            assert point is not None
            assert ecdsa._is_on_curve(point)
            assert point[0] % N == signature.r
            assert (point[1] & 1) == signature.v

    def test_non_residue_returns_none(self):
        # x = 5 is not a curve x-coordinate on secp256k1 (5³+7 = 132 is a
        # quadratic non-residue mod p).
        assert _recover_nonce_point(5, 0) is None


class TestBatchVerify:
    def test_all_good_batch(self):
        items = _make_batch(1, 32)
        with counted() as spent:
            assert batch_verify(items) == [True] * 32
        assert cost(spent) == (1, 0)

    def test_empty_batch(self):
        assert batch_verify([]) == []

    def test_single_item_goes_straight_to_the_oracle(self, monkeypatch):
        monkeypatch.setattr(ecdsa, "_recover_nonce_point",
                            lambda r, v: pytest.fail("nothing to amortize"))
        [(pk, msg, sig)] = _make_batch(6, 1)
        with counted() as spent:
            assert batch_verify([(pk, msg, sig)]) == [True]
        assert cost(spent) == (0, 1)
        assert batch_verify([(pk, msg + b"!", sig)]) == [False]

    def test_agrees_with_individual_verifier(self):
        items = _make_batch(2, 36)
        # Corrupt a third of them in assorted ways.
        pk, msg, sig = items[3]
        items[3] = (pk, msg + b"tamper", sig)
        pk, msg, sig = items[7]
        items[7] = (pk, msg, Signature(r=sig.r, s=(sig.s + 1) % N or 1,
                                       v=sig.v))
        pk, msg, sig = items[11]
        other = PrivateKey.from_seed(b"interloper").public_key
        items[11] = (other, msg, sig)
        got = batch_verify(items)
        expected = [pk.verify(msg, sig) for pk, msg, sig in items]
        assert got == expected
        assert got[3] is False and got[7] is False and got[11] is False

    def test_flipped_parity_bit_still_verifies(self):
        # The individual verifier ignores v, so a corrupted parity bit must
        # not change the batch outcome: −R misses the equation, and the
        # checks decide every item.
        items = _make_batch(3, 32)
        pk, msg, sig = items[2]
        items[2] = (pk, msg, Signature(r=sig.r, s=sig.s, v=sig.v ^ 1))
        with counted() as spent:
            assert batch_verify(items) == [True] * 32
        assert cost(spent) == (1, 32)

    def test_malformed_scalars_rejected_without_curve_math(self):
        items = _make_batch(4, 34)
        pk, msg, sig = items[0]
        high_s = N - sig.s  # high-s twin: malleable duplicate
        items[0] = (pk, msg, Signature(r=sig.r, s=high_s, v=sig.v))
        pk, msg, sig = items[1]
        items[1] = (pk, msg, Signature(r=N, s=sig.s, v=sig.v))
        with counted() as spent:
            got = batch_verify(items)
        assert got == [False, False] + [True] * 32
        # Both are refused beside the equation, which holds for the other
        # 32 and decides the batch.
        assert spent["equations"] == [32 + 32] and not spent["checks"]

    @staticmethod
    def _spend(forged, high_s):
        """Verdict counter and seconds-histogram deltas, and the cost, of
        the 512/64 batch with ``forged`` messages and ``high_s`` scalars."""
        items = _wide_batch()
        for index in forged:
            pk, msg, sig = items[index]
            items[index] = (pk, msg + b"!", sig)
        for index in high_s:
            pk, msg, sig = items[index]
            items[index] = (pk, msg, Signature(sig.r, N - sig.s, sig.v))
        labels = [("batch", "ok"), ("batch", "fail"), ("single", "ok"),
                  ("single", "fail")]
        histogram = ecdsa._VERIFY_SECONDS.child()

        def counts():
            return [ecdsa._VERIFY_TOTAL.labels(path=path,
                                               outcome=outcome).value
                    for path, outcome in labels] + [histogram.count]

        before = counts()
        with counted() as spent:
            assert batch_verify(items) == \
                [index not in forged + high_s for index in range(512)]
        return ([after - start for after, start in zip(counts(), before)],
                cost(spent))

    def test_verdict_counters_after_a_512_signature_batch(self):
        # One verdict per item, on the path that decided it: a forgery
        # fails the equation, and then every item is an OpenSSL check.
        assert self._spend((7,), (300,)) == ([0, 0, 510, 2, 512], (1, 512))

    def test_one_seconds_sample_per_signature_on_the_equation_path(self):
        # The equation held: the batch path for its 512 (or 511 beside a
        # refused high-s scalar), and one seconds sample per signature,
        # not one per equation.
        assert self._spend((), ()) == ([512, 0, 0, 0, 512], (1, 0))
        assert self._spend((), (300,)) == ([511, 1, 0, 0, 512], (1, 0))

    @pytest.mark.parametrize("seed", range(20))
    def test_bisection_isolates_single_corruption(self, seed):
        """≥20 seeds: exactly one corrupted signature, only it rejected,
        at the cost of one equation (none when the corrupted r names no
        nonce point) plus the checks of every item."""
        rng = random.Random(seed)
        size = rng.randrange(32, 64)
        items = _make_batch(100 + seed, size)
        victim = rng.randrange(size)
        pk, msg, sig = items[victim]
        corrupt_r = (sig.r + rng.randrange(1, N - 1)) % N or 1
        items[victim] = (pk, msg, Signature(r=corrupt_r, s=sig.s, v=sig.v))
        with counted() as spent:
            got = batch_verify(items)
        assert got == [key.verify(message, signature)
                       for key, message, signature in items]
        assert got == [index != victim for index in range(size)]
        resolves = _recover_nonce_point(corrupt_r, sig.v) is not None
        assert cost(spent) == (int(resolves), size)

    @pytest.mark.parametrize("size, equations", [(31, 0), (32, 1)],
                             ids=["31", "32"])
    def test_31_go_one_by_one_32_to_one_bucket_sum(self, size, equations):
        items = _make_batch(7, size)
        buckets = ec_backend._SCALAR_MULTS.labels(kind="bucket")
        before = buckets.value
        with counted() as spent:
            assert batch_verify(items) == [True] * size
        assert buckets.value - before == equations
        assert cost(spent) == (equations, 0 if equations else size)

    def test_a_forged_wide_batch_is_one_equation_then_96_checks(self):
        items = _make_batch(8, 96)
        items[70] = _corrupt_item(items[70], "bad_message", None)
        with counted() as spent:
            got = batch_verify(items)
        # The one equation, over all 96 nonce points and 96 key terms,
        # fails, and none runs on a part of the batch.
        assert spent["equations"] == [96 + 96]
        assert cost(spent) == (1, 96)
        assert got == [key.verify(message, sig)
                       for key, message, sig in items]
        assert got == [index != 70 for index in range(96)]


@lru_cache(maxsize=None)
def _wide_signatures() -> tuple:
    keys = [PrivateKey.from_seed(b"count-%d" % index) for index in range(64)]
    return tuple((keys[index % 64].public_key, b"count-msg-%d" % index,
                  keys[index % 64].sign(b"count-msg-%d" % index))
                 for index in range(512))


def _wide_batch() -> list:
    """512 signatures from 64 keys, the shape of a ``chain_bulk`` block,
    signed once per process."""
    return list(_wide_signatures())
