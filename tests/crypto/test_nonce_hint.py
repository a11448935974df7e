"""The unsigned nonce-point hint, ``Signature.nonce_y``.

A signer knows its nonce point and may leave the y coordinate beside the
signature; ``batch_verify`` confirms it with the curve equation instead of
taking a square root.  What is pinned here: an accepted hint yields exactly
the point the square root yields (so coefficients and verdicts cannot
differ), every other hint — absent, wrong, negated, out of range, or for an
``r`` whose point has ``x ≥ n`` — costs one square root and nothing else,
and ``batch_verify`` agrees with :meth:`PublicKey.verify` on all of them,
in the narrowest batch that reaches the equation (32 signatures) and
inside a 512-item batch whose forgeries fail the equation, so the checks
decide it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.crypto import ec_backend, ecdsa
from repro.crypto.ec_backend import GX, GY
from repro.crypto.ecdsa import (
    N,
    P,
    PrivateKey,
    PublicKey,
    Signature,
    _recover_nonce_point,
    batch_verify,
)
from repro.crypto.hashing import hash_to_int
from tests.crypto.affine_oracle import point_add, point_mul
from tests.crypto.rule import WIDTH, cost, counted


#: Every batch here is sized against a pinned rule (tests/crypto/rule.py).
pytestmark = pytest.mark.usefixtures("equation_from_32")

G = (GX, GY)

#: name → (what it does to a signer's hint, square roots it costs).
HINTS = {
    "valid": (lambda y: y, 0),
    "absent": (lambda y: None, 1),
    "wrong_value": (lambda y: y ^ 2, 1),  # right parity, off the curve
    "negated": (lambda y: P - y, 1),  # on the curve, wrong parity
    "zero": (lambda y: 0, 1),
    "above_p": (lambda y: y + 2 * P, 1),  # ≡ y, right parity, not canonical
    "below_zero": (lambda y: y - 2 * P, 1),
}


def _signed(index: int):
    key = PrivateKey.from_seed(b"hint-key-%d" % (index % 64))
    message = b"hint-message-%d" % index
    return key.public_key, message, key.sign(message)


def _with_hint(item, name: str):
    public_key, message, signature = item
    return public_key, message, replace(
        signature, nonce_y=HINTS[name][0](signature.nonce_y))


def _wrapped_r_signature(message: bytes, r_is_curve_x: bool):
    """A valid signature whose nonce point has ``x ≥ n``, so ``r = x − n``.

    No signer reaches such a point by chance (probability ~2⁻¹²⁸), so the
    point is picked first and the public key solved for:
    ``Q = u2⁻¹·(R − u1·G)``.  ``r_is_curve_x`` chooses whether ``r`` itself
    is also a curve x-coordinate — then recovery stops at the wrong
    candidate and only the individual oracle can accept the signature.
    """
    x = N
    while True:
        x += 1
        rhs = (x * x * x + 7) % P
        y = pow(rhs, (P + 1) // 4, P)
        if y * y % P != rhs:
            continue
        small = ((x - N) ** 3 + 7) % P
        root = pow(small, (P + 1) // 4, P)
        if (root * root % P == small) == r_is_curve_x:
            break
    r, s = x - N, 0xC0FFEE
    s_inv = pow(s, -1, N)
    u1 = hash_to_int(message, N) * s_inv % N
    u2 = r * s_inv % N
    minus_u1_g = point_mul(N - u1, G)
    q = point_mul(pow(u2, -1, N), point_add((x, y), minus_u1_g))
    return PublicKey(*q), message, Signature(r, s, y & 1, nonce_y=y)


class TestSignerLeavesTheHint:
    def test_hint_is_the_nonce_points_y(self):
        for index in range(20):
            _, _, signature = _signed(index)
            y = signature.nonce_y
            assert 0 < y < P and (y & 1) == signature.v
            assert (y * y - signature.r ** 3 - 7) % P == 0

    def test_low_s_flip_negates_hint_and_parity_together(self):
        # Redo the signer's arithmetic without the low-s rule: where the rule
        # replaced s by n − s, the hint must name −R.
        flipped = 0
        for index in range(12):
            key = PrivateKey.from_seed(b"flip-%d" % index)
            signature = key.sign(b"m")
            digest = hash_to_int(b"m", N)
            k = key._deterministic_nonce(digest, 0)
            point = ec_backend.scalar_mult_base(k)
            raw_s = pow(k, -1, N) * (digest + signature.r * key.secret) % N
            if raw_s > N // 2:
                flipped += 1
                assert signature.nonce_y == P - point[1]
            else:
                assert signature.nonce_y == point[1]
            assert signature.v == signature.nonce_y & 1
        assert 0 < flipped < 12


class TestRecoverWithHint:
    @pytest.mark.parametrize("name", sorted(HINTS))
    def test_same_point_at_the_stated_cost(self, curve_ops, name):
        mutate, square_roots = HINTS[name]
        for index in range(6):
            _, _, signature = _signed(index)
            expected = _recover_nonce_point(signature.r, signature.v)
            before = curve_ops["sqrt"]
            got = _recover_nonce_point(signature.r, signature.v,
                                       mutate(signature.nonce_y))
            assert got == expected
            assert curve_ops["sqrt"] - before == square_roots

    def test_hint_cannot_name_a_point_the_square_root_would_not(self):
        # Flipped parity bit with the signer's (now mismatching) hint: the
        # result is the *other* root, exactly as without a hint.
        _, _, signature = _signed(0)
        other = _recover_nonce_point(signature.r, signature.v ^ 1,
                                     signature.nonce_y)
        assert other == (signature.r, P - signature.nonce_y)
        assert other == _recover_nonce_point(signature.r, signature.v ^ 1)


def _others(count: int):
    """``count`` plain signatures beside the one under test: together the
    narrowest batch that reaches the equation."""
    return [_signed(index) for index in range(100, 100 + count)]



class TestBatchVerifyWithHints:
    @pytest.mark.parametrize("name", sorted(HINTS))
    def test_pair_agrees_with_the_individual_verifier(self, name):
        items = [_with_hint(_signed(1), name)] + _others(WIDTH - 1)
        with counted() as spent:
            assert batch_verify(items) == [True] * WIDTH
        assert cost(spent) == (1, 0)
        tampered = [(items[0][0], items[0][1] + b"!", items[0][2])]
        assert batch_verify(tampered + items[1:]) == \
            [False] + [True] * (WIDTH - 1)

    def test_hinted_and_stripped_batches_run_the_same_equation(
            self, monkeypatch):
        # Seen where the caller hands the equation out: every term, not
        # only the part its own core sums.
        calls = []
        real = ecdsa._equation_sum

        def spy(base_scalar, terms):
            calls.append((base_scalar, list(terms)))
            return real(base_scalar, terms)

        hinted = [_signed(index) for index in range(WIDTH)]
        monkeypatch.setattr(ecdsa, "_equation_sum", spy)
        assert batch_verify(hinted) == [True] * WIDTH
        assert batch_verify([_with_hint(item, "absent")
                             for item in hinted]) == [True] * WIDTH
        assert len(calls) == 2 and calls[0] == calls[1]

    def test_hint_is_not_part_of_the_verdict_cache_key(self):
        # One signature under three hints is one signature: each copy
        # joins the one equation and gets its verdict, with or without a
        # usable hint.
        item = _signed(3)
        copies = [_with_hint(item, name)
                  for name in ("valid", "absent", "wrong_value")]
        assert copies[0] == copies[1] == copies[2]
        items = copies + _others(WIDTH)
        with counted() as spent:
            assert batch_verify(items) == [True] * (WIDTH + 3)
        assert cost(spent) == (1, 0)

    @pytest.mark.parametrize("r_is_curve_x", [False, True])
    def test_nonce_point_with_x_above_n(self, r_is_curve_x):
        item = _wrapped_r_signature(b"wrapped", r_is_curve_x)
        public_key, message, signature = item
        assert public_key.verify(message, signature)
        items = [item] + _others(WIDTH - 1)
        with counted() as spent:
            assert batch_verify(items) == [True] * WIDTH
        # Recovery reaches the true point only when r is no curve x itself;
        # otherwise the equation misses and the checks decide all 32.
        assert cost(spent) == (1, WIDTH if r_is_curve_x else 0)

    def test_512_items_every_hint_kind_three_forgeries(self):
        items = [_signed(index) for index in range(512)]
        for position, name in zip(range(10, 500, 70), sorted(HINTS)):
            items[position] = _with_hint(items[position], name)
        items[100] = _wrapped_r_signature(b"wrapped-a", False)
        items[300] = _wrapped_r_signature(b"wrapped-b", True)
        # Forgeries that keep the genuine signer's (curve-valid) hint.
        forged = {5: "s", 200: "message", 450: "key"}
        for position, kind in forged.items():
            public_key, message, signature = items[position]
            if kind == "s":
                signature = replace(signature, s=signature.s % (N // 2) + 1)
            elif kind == "message":
                message += b"!"
            else:
                public_key = items[position + 1][0]
            items[position] = (public_key, message, signature)
        with counted() as spent:
            got = batch_verify(items)
        assert got == [index not in forged for index in range(512)]
        assert got == [key.verify(message, signature)
                       for key, message, signature in items]
        # The forgeries and the r-is-a-curve-x signature (300) fail the
        # one equation; the 512 checks decide.
        assert cost(spent) == (1, 512)
