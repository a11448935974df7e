"""Batch signature verification: multi-scalar differential + bisection.

Two layers are under test here.  ``ec_backend.multi_scalar_mult`` is checked
differentially against the affine oracle in :mod:`tests.crypto.affine_oracle`
(sums of ``point_mul`` results).  ``ecdsa.batch_verify`` is checked for
*agreement with the individual verifier* — the authoritative oracle — on
all-good batches, corrupted batches, malformed scalars, flipped parity bits,
and cache interactions.  The bisection sweep runs ≥20 seeds with exactly one
corrupted signature each, asserting only that signature is rejected; the
Hypothesis sweep draws batches from few keys (so the per-key folded term is
always exercised) with up to three corruptions of five kinds.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ec_backend, ecdsa
from repro.crypto.ec_backend import GX, GY, N, multi_scalar_mult
from repro.crypto.ecdsa import (
    _VERIFY_CACHE,
    PrivateKey,
    PublicKey,
    Signature,
    _batch_equation_holds,
    _recover_nonce_point,
    batch_verify,
)
from tests.crypto.affine_oracle import point_add, point_mul

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
            ec_backend.double_scalar_mult_base(u1, u2, q)

    def test_wide_batch(self):
        pairs = [(random_scalar(), point_mul(random_scalar(), G))
                 for _ in range(32)]
        base = random_scalar()
        assert multi_scalar_mult(base, pairs) == _oracle_msm(base, pairs)

    def test_one_shot_pairs_are_terms_of_the_same_sum(self):
        pairs = [(random_scalar(), point_mul(random_scalar(), G))
                 for _ in range(6)]
        base = random_scalar()
        expected = _oracle_msm(base, pairs)
        for cut in range(len(pairs) + 1):
            assert multi_scalar_mult(base, pairs[:cut], pairs[cut:]) \
                == expected

    def test_one_shot_tables_stay_out_of_the_lru(self):
        ec_backend._POINT_TABLE_CACHE.clear()
        keys = [point_mul(random_scalar(), G) for _ in range(3)]
        nonces = [point_mul(random_scalar(), G) for _ in range(5)]
        multi_scalar_mult(random_scalar(),
                          [(random_scalar(), q) for q in keys],
                          [(random_scalar(), r) for r in nonces])
        assert set(ec_backend._POINT_TABLE_CACHE) == set(keys)


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
    """One of 4 keys × 40 messages, signed once per process."""
    key = PrivateKey.from_seed(b"fold-key-%d" % key_index)
    message = b"fold-msg-%d-%d" % (key_index, message_index)
    return key.public_key, message, key.sign(message)


CORRUPTIONS = ("bad_r", "bad_s", "flip_v", "swap_key", "bad_message")


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
    if kind == "swap_key":
        return other_key, message, sig
    return public_key, message + b"!", sig


@st.composite
def _batches(draw):
    """(items, corrupted indices → kind) from 1–4 keys, 2–40 signatures."""
    keys = draw(st.integers(1, 4))
    size = draw(st.integers(2, 40))
    slots = draw(st.lists(
        st.tuples(st.integers(0, keys - 1), st.integers(0, 39)),
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

    def setup_method(self):
        _VERIFY_CACHE.clear()

    @settings(max_examples=40, deadline=None)
    @given(_batches())
    def test_agrees_with_individual_verifier_on_generated_batches(
            self, batch):
        items, corrupted = batch
        _VERIFY_CACHE.clear()
        stats: dict = {}
        got = batch_verify(items, stats)
        _VERIFY_CACHE.clear()
        expected = [key.verify(message, sig) for key, message, sig in items]
        assert got == expected
        # A flipped parity bit is still a valid signature (``verify``
        # ignores v); every other corruption is not.
        assert expected == [corrupted.get(index, "flip_v") == "flip_v"
                            for index in range(len(items))]
        # Every corrupted item — and nothing that a passing sub-batch
        # vouched for — reaches the individual oracle.  A good item ends
        # up there only as the sibling leaf of a bad one (at most two per
        # bad item: sub-batches of three split 1 + 2).
        assert stats["batched"] + stats["singles"] >= len(items)
        assert len(corrupted) <= stats["singles"] <= 3 * len(corrupted)
        if not corrupted:
            assert (stats["subchecks"], stats["depth"]) == (1, 0)

    def test_one_bad_signature_among_a_senders_good_ones(self):
        items = [_signed(0, index) for index in range(24)]
        items[17] = _corrupt_item(items[17], "bad_s", None)
        stats: dict = {}
        assert batch_verify(items, stats) == [i != 17 for i in range(24)]
        assert stats["depth"] >= 3  # bisected inside one key group

    def test_single_key_batch_is_one_key_term(self, monkeypatch):
        seen = []
        real = ec_backend.multi_scalar_mult

        def spy(base_scalar, pairs, one_shot_pairs=()):
            seen.append((len(pairs), len(one_shot_pairs)))
            return real(base_scalar, pairs, one_shot_pairs)

        monkeypatch.setattr(ec_backend, "multi_scalar_mult", spy)
        items = [_signed(k, m) for k in range(3) for m in range(8)]
        assert batch_verify(items) == [True] * 24
        assert seen == [(3, 24)]

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
    def setup_method(self):
        _VERIFY_CACHE.clear()

    def test_all_good_batch(self):
        items = _make_batch(1, 16)
        assert batch_verify(items) == [True] * 16

    def test_empty_batch(self):
        assert batch_verify([]) == []

    def test_single_item_goes_straight_to_the_oracle(self, monkeypatch):
        monkeypatch.setattr(ecdsa, "_recover_nonce_point",
                            lambda r, v: pytest.fail("nothing to amortize"))
        [(pk, msg, sig)] = _make_batch(6, 1)
        stats: dict = {}
        assert batch_verify([(pk, msg, sig)], stats) == [True]
        assert stats == {"batched": 0, "singles": 1, "subchecks": 0,
                         "depth": 0}
        assert batch_verify([(pk, msg + b"!", sig)]) == [False]

    def test_agrees_with_individual_verifier(self):
        items = _make_batch(2, 12)
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
        _VERIFY_CACHE.clear()
        expected = [pk.verify(msg, sig) for pk, msg, sig in items]
        assert got == expected
        assert got[3] is False and got[7] is False and got[11] is False

    def test_flipped_parity_bit_still_verifies(self):
        # The individual verifier ignores v, so a corrupted parity bit must
        # not change the batch outcome — it routes through the singleton
        # fallback instead.
        items = _make_batch(3, 6)
        pk, msg, sig = items[2]
        items[2] = (pk, msg, Signature(r=sig.r, s=sig.s, v=sig.v ^ 1))
        assert batch_verify(items) == [True] * 6

    def test_malformed_scalars_rejected_without_curve_math(self):
        items = _make_batch(4, 3)
        pk, msg, sig = items[0]
        high_s = N - sig.s  # high-s twin: malleable duplicate
        items[0] = (pk, msg, Signature(r=sig.r, s=high_s, v=sig.v))
        got = batch_verify(items)
        assert got == [False, True, True]

    def test_cache_round_trip(self):
        items = _make_batch(5, 8)
        assert batch_verify(items) == [True] * 8
        # Second pass must be all cache hits and still correct.
        assert batch_verify(items) == [True] * 8
        # Individual verifier sees the batch-written outcomes too.
        for pk, msg, sig in items:
            assert pk.verify(msg, sig)

    @pytest.mark.parametrize("seed", range(20))
    def test_bisection_isolates_single_corruption(self, seed):
        """≥20 seeds: exactly one corrupted signature, only it rejected."""
        rng = random.Random(seed)
        size = rng.randrange(5, 24)
        items = _make_batch(100 + seed, size)
        victim = rng.randrange(size)
        pk, msg, sig = items[victim]
        corrupt_r = (sig.r + rng.randrange(1, N - 1)) % N or 1
        items[victim] = (pk, msg, Signature(r=corrupt_r, s=sig.s, v=sig.v))
        got = batch_verify(items)
        expected = [index != victim for index in range(size)]
        assert got == expected
