"""The batch equation in libcrypto, against the oracles.

``libcrypto.sum_is_infinity`` evaluates ``base·G + Σ kᵢ·Qᵢ`` with one
``EC_POINTs_mul``.  Held here: its verdict equals the Strauss sum of
:mod:`tests.crypto.jacobian_oracle` over 1–600 terms (and, for a few
terms, the affine oracle's) on sums that close and sums that do not, with
repeated points, cancelling ones, scalars that fold to 0 mod n and a base
scalar of 0; ``ecdsa._batch_equation_holds`` on real signatures, forged or
not, from repeated keys; a point off the curve is refused and its batch
goes to the checks; 20 000 equations leave the resident set where it was;
a forged batch's equation and checks all run on the caller's thread; and
a platform whose loader finds no libcrypto checks every signature,
a block's too, with the oracle's verdicts.
"""

from __future__ import annotations

import ctypes.util
import random
import sys
import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import blockchain as blockchain_mod
from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority
from repro.chain.transaction import Transaction
from repro.crypto import ecdsa, libcrypto
from repro.crypto.ec_backend import GX, GY, N, P, batch_inverse, scalar_mult_base
from repro.crypto.ecdsa import PrivateKey, Signature, batch_verify
from repro.crypto.hashing import hash_to_int
from tests.crypto.affine_oracle import point_add, point_mul
from tests.crypto.jacobian_oracle import strauss_msm
from tests.crypto.rule import cost, counted

G = (GX, GY)
_RANDOM = random.Random(0x0551)
POOL = [scalar_mult_base(_RANDOM.randrange(1, N)) for _ in range(48)]
EDGE_SCALARS = [0, 1, 2, N - 1, N - 2, N, 2**127, 2**128 - 1, 2**128,
                2**255, N + 5]

scalars = st.one_of(st.sampled_from(EDGE_SCALARS),
                    st.integers(1, 2**128 - 1), st.integers(2**255, N - 1))


def _negate(point):
    return (point[0], P - point[1])


@st.composite
def equations(draw, counts):
    """``(base, terms)`` over a 48-point pool, so repeated points and
    ``Q`` beside ``−Q`` turn up constantly; each term's scalar may come
    back beside its negation (a key term folding to 0 mod n)."""
    base = draw(st.one_of(st.just(0), scalars))
    terms = []
    for _ in range(draw(counts)):
        point = POOL[draw(st.integers(0, len(POOL) - 1))]
        if draw(st.booleans()):
            point = _negate(point)
        scalar = draw(scalars)
        terms.append((scalar, point))
        if draw(st.integers(0, 9)) == 0:
            terms.append((N - scalar % N, point))
    return base, terms


def _closed(base, terms):
    """``terms`` plus the negated Strauss sum: an equation that holds."""
    total = strauss_msm([(base, G)] + terms)
    return terms if total is None else terms + [(1, _negate(total))]


class TestSumAgainstTheOracles:
    @settings(max_examples=20, deadline=None)
    @given(equations(st.integers(1, 600)), st.booleans())
    def test_verdict_equals_strauss_over_1_to_600_terms(self, drawn, close):
        base, terms = drawn
        if close:
            terms = _closed(base, terms)
        assert libcrypto.sum_is_infinity(base, terms) == \
            (strauss_msm([(base, G)] + terms) is None)

    @settings(max_examples=25, deadline=None)
    @given(equations(st.integers(1, 4)), st.booleans())
    def test_verdict_equals_the_affine_oracle_on_few_terms(self, drawn,
                                                           close):
        base, terms = drawn
        if close:
            terms = _closed(base, terms)
        total = point_mul(base, G)
        for scalar, point in terms:
            total = point_add(total, point_mul(scalar, point))
        assert libcrypto.sum_is_infinity(base, terms) == (total is None)

    def test_nonce_points_that_cancel(self):
        # R beside −R under one coefficient: only the base term is left.
        r, k = POOL[0], 2**127 + 3
        assert libcrypto.sum_is_infinity(0, [(k, r), (k, _negate(r))])
        assert not libcrypto.sum_is_infinity(5, [(k, r), (k, _negate(r))])

    def test_a_key_term_that_folds_to_zero(self):
        q, k = POOL[1], _RANDOM.randrange(2**255, N)
        assert libcrypto.sum_is_infinity(0, [(k, q), (N - k, q)])
        assert libcrypto.sum_is_infinity(0, [(N, q), (0, POOL[2])])
        assert not libcrypto.sum_is_infinity(0, [(k, q), (N - k + 1, q)])

    def test_a_base_scalar_of_zero(self):
        assert libcrypto.sum_is_infinity(0, [])
        assert libcrypto.sum_is_infinity(N, [])
        assert not libcrypto.sum_is_infinity(0, [(3, POOL[3])])
        assert libcrypto.sum_is_infinity(3, [(N - 3, G)])


@lru_cache(maxsize=None)
def _signed(index: int):
    key = PrivateKey.from_seed(b"libcrypto-key-%d" % (index % 12))
    message = b"libcrypto-msg-%d" % index
    return key.public_key, message, key.sign(message)


def _entries(items):
    """``(u1, u2, Q, R)`` per item, as ``batch_verify`` builds them."""
    s_inverses = batch_inverse([sig.s for _, _, sig in items], N)
    return [(hash_to_int(message, N) * s_inv % N, sig.r * s_inv % N,
             (key.x, key.y), (sig.r, sig.nonce_y))
            for (key, message, sig), s_inv in zip(items, s_inverses)]


class TestEquationOnSignatures:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 599), min_size=1, max_size=600),
           st.lists(st.integers(0, 599), max_size=3))
    def test_holds_exactly_when_no_item_is_forged(self, picks, forged):
        # Twelve keys, so a batch repeats them; an index picked twice is
        # one signature twice.  A forged item's u1 is off by one: its
        # R = u1·G + u2·Q no longer holds (checked on the oracle).
        entries = _entries([_signed(index) for index in picks])
        forged = sorted({index % len(entries) for index in forged})
        for index in forged:
            u1, u2, q, r = entries[index]
            entries[index] = (u1 + 1, u2, q, r)
        for index, (u1, u2, q, r) in enumerate(entries):
            if index in forged or index < 2:
                assert (strauss_msm([(u1, G), (u2, q)]) == r) == \
                    (index not in forged)
        assert ecdsa._batch_equation_holds(entries) == (not forged)


def _off_curve():
    x = 5  # 5³ + 7 is no square mod p: no point has x = 5
    return (x, 1)


class TestRefusedPoints:
    def test_an_off_curve_point_is_refused(self):
        # Were the point taken, it would cancel against its negation.
        off = _off_curve()
        assert not libcrypto.sum_is_infinity(0, [(1, off), (1, _negate(off))])
        assert not libcrypto.sum_is_infinity(7, [(1, POOL[0]), (2, off)])
        # The refusal left nothing behind: the next equation holds.
        assert libcrypto.sum_is_infinity(0, [(4, POOL[0]),
                                             (4, _negate(POOL[0]))])

    def test_its_batch_goes_to_the_checks(self, monkeypatch):
        items = [_signed(index) for index in range(40)]
        real = ecdsa._recover_nonce_point
        calls = []

        def one_off_curve(r, v, hint=None):
            calls.append(r)
            return _off_curve() if len(calls) == 7 else real(r, v, hint)

        monkeypatch.setattr(ecdsa, "_recover_nonce_point", one_off_curve)
        with counted() as spent:
            assert batch_verify(items) == [True] * 40
        assert cost(spent) == (1, 40)


def _resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * 4096


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/statm")
def test_20000_equations_keep_the_resident_set():
    # Small scalars keep each call cheap; every call still makes (and must
    # free) a context, two coordinates, a base, four scalars, four points
    # and the sum.  A call left refused frees what it made too.
    terms = [(index + 1, POOL[index]) for index in range(4)]
    closed = terms + [(1, _negate(strauss_msm([(5, G)] + terms)))]
    for _ in range(500):
        libcrypto.sum_is_infinity(5, closed)
    before = _resident_bytes()
    for index in range(20_000):
        if index % 8 == 7:
            assert not libcrypto.sum_is_infinity(5, terms + [(1, _off_curve())])
        else:
            assert libcrypto.sum_is_infinity(5, closed)
    assert _resident_bytes() - before < 2 * 2**20


def test_an_equation_and_its_checks_run_on_the_callers_thread(monkeypatch):
    threads = []
    real_sum, real_check = libcrypto.sum_is_infinity, ecdsa._check

    def sum_spy(base_scalar, terms):
        threads.append(threading.get_ident())
        return real_sum(base_scalar, terms)

    def check_spy(handle, message, signature):
        threads.append(threading.get_ident())
        return real_check(handle, message, signature)

    monkeypatch.setattr(libcrypto, "sum_is_infinity", sum_spy)
    monkeypatch.setattr(ecdsa, "_check", check_spy)
    items = [_signed(index) for index in range(64)]
    items[9] = (items[9][0], items[9][1] + b"!", items[9][2])
    assert batch_verify(items) == [index != 9 for index in range(64)]
    assert threads == [threading.get_ident()] * (1 + 64)


# -- a platform without the symbol ---------------------------------------------


@pytest.fixture
def no_libcrypto(monkeypatch):
    """The loader finds no library: ``LIBCRYPTO`` is what it then gives."""
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
    monkeypatch.setattr(libcrypto, "LIBCRYPTO", libcrypto.load())
    assert libcrypto.LIBCRYPTO is None


def test_a_library_without_the_symbol_loads_as_none(monkeypatch):
    # libc is a library the loader can open that has no EC_POINTs_mul.
    libc = ctypes.util.find_library("c")
    if libc is None:
        pytest.skip("no C library to stand in")
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: libc)
    assert libcrypto.load() is None


@pytest.mark.usefixtures("no_libcrypto")
class TestWithoutLibcrypto:
    def test_the_rule_prices_every_batch_to_the_checks(self):
        for signatures in (1, 2, 15, 512, 4096):
            assert not ecdsa._equation_pays(signatures)
        assert not libcrypto.sum_is_infinity(0, [])

    @staticmethod
    def _block(forge: bool, monkeypatch):
        """512 transfers from 64 senders, each of the first 32 forging one
        (a wrong s) when ``forge``; mined under the production rule."""
        rng = np.random.default_rng(43)
        chain = Blockchain(ProofOfAuthority.with_generated_validators(1, rng))
        wallets = []
        for index in range(64):
            wallet = Wallet.generate(chain, rng, f"w{index}")
            chain.state.credit(wallet.address, 10**12)
            wallets.append(wallet)
        for index, wallet in enumerate(wallets):
            for nonce in range(8):
                tx = Transaction(
                    sender=wallet.address, nonce=nonce, to="0x" + "99" * 20,
                    value=1 + nonce, gas_limit=50_000,
                ).sign(wallet.key)
                if forge and index < 32 and nonce == index % 8:
                    sig = tx.signature
                    tx.signature = Signature(sig.r, sig.s % (N // 2) + 1,
                                             sig.v)
                chain.submit(tx)
        verdicts = []
        real = blockchain_mod.batch_verify

        def recorded(items):
            verdicts.append((real(items), [key.verify(message, signature)
                                           for key, message, signature
                                           in items]))
            return verdicts[-1][0]

        monkeypatch.setattr(blockchain_mod, "batch_verify", recorded)
        with counted() as spent:
            chain.mine_block()
        [(got, oracle)] = verdicts
        assert got == oracle
        return got, cost(spent), chain.observer.records[-1]["verify"]

    def test_a_forged_512_from_64_block_gets_the_oracles_verdicts(
            self, monkeypatch):
        got, spent, record = self._block(True, monkeypatch)
        assert got.count(False) == 32
        assert spent == (0, 2 * 512)  # the oracle's 512 included
        assert record == {"signatures": 512, "invalid": 32}

    def test_an_honest_block_gets_the_oracles_verdicts(self, monkeypatch):
        got, spent, record = self._block(False, monkeypatch)
        assert got == [True] * 512
        assert spent == (0, 2 * 512)
        assert record == {"signatures": 512, "invalid": 0}
