"""Tests for secp256k1 ECDSA and ECDH."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ecdsa import (
    N,
    P,
    PrivateKey,
    PublicKey,
    Signature,
    shared_secret,
)
from repro.errors import InvalidKeyError, InvalidSignatureError


@pytest.fixture
def key(rng) -> PrivateKey:
    return PrivateKey.generate(rng)


class TestKeys:
    def test_generate_in_range(self, key):
        assert 1 <= key.secret < N

    def test_public_key_on_curve(self, key):
        # PublicKey.__post_init__ validates the curve equation.
        PublicKey(key.public_key.x, key.public_key.y)

    def test_invalid_scalar_rejected(self):
        with pytest.raises(InvalidKeyError):
            PrivateKey(0)
        with pytest.raises(InvalidKeyError):
            PrivateKey(N)

    def test_off_curve_point_rejected(self):
        with pytest.raises(InvalidKeyError):
            PublicKey(1, 1)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_canonical_coordinate_rejected(self, key, axis):
        # x + p names the same curve point, fits 32 bytes and would derive
        # a different address.
        x, y = key.public_key.x, key.public_key.y
        for shift in (P, -P):
            coords = (x + shift, y) if axis == "x" else (x, y + shift)
            with pytest.raises(InvalidKeyError, match="out of range"):
                PublicKey(*coords)

    def test_non_canonical_encoding_rejected(self):
        # Coordinates small enough that coordinate + p still fits 32 bytes:
        # (1, √8) and (∛−6, 1) are on the curve (p ≡ 3 mod 4, p ≡ 7 mod 9).
        for x, y in ((1, pow(8, (P + 1) // 4, P)),
                     (pow(P - 6, (P + 2) // 9, P), 1)):
            good = PublicKey(x, y)
            assert PublicKey.from_bytes(good.to_bytes()) == good
            shifted = (x + P, y) if x == 1 else (x, y + P)
            encoded = b"\x04" + b"".join(c.to_bytes(32, "big")
                                         for c in shifted)
            with pytest.raises(InvalidKeyError, match="out of range"):
                PublicKey.from_bytes(encoded)

    def test_from_seed_deterministic(self):
        assert PrivateKey.from_seed(b"dev-1").secret == \
            PrivateKey.from_seed(b"dev-1").secret

    def test_from_seed_distinct(self):
        assert PrivateKey.from_seed(b"a").secret != \
            PrivateKey.from_seed(b"b").secret

    def test_public_key_serialization_round_trip(self, key):
        encoded = key.public_key.to_bytes()
        assert PublicKey.from_bytes(encoded) == key.public_key

    def test_public_key_bad_prefix_rejected(self, key):
        bad = b"\x05" + key.public_key.to_bytes()[1:]
        with pytest.raises(InvalidKeyError):
            PublicKey.from_bytes(bad)

    def test_address_format(self, key):
        assert key.address.startswith("0x") and len(key.address) == 42


class TestSignatures:
    def test_sign_verify_round_trip(self, key):
        signature = key.sign(b"hello world")
        assert key.public_key.verify(b"hello world", signature)

    def test_wrong_message_fails(self, key):
        signature = key.sign(b"hello world")
        assert not key.public_key.verify(b"hello worle", signature)

    def test_wrong_key_fails(self, key, rng):
        other = PrivateKey.generate(rng)
        signature = key.sign(b"msg")
        assert not other.public_key.verify(b"msg", signature)

    def test_deterministic_signatures(self, key):
        assert key.sign(b"msg") == key.sign(b"msg")

    def test_low_s_enforced(self, key):
        for message in (b"a", b"b", b"c", b"d"):
            assert key.sign(message).s <= N // 2

    def test_serialization_round_trip(self, key):
        signature = key.sign(b"msg")
        assert Signature.from_bytes(signature.to_bytes()) == signature

    def test_bad_length_rejected(self):
        with pytest.raises(InvalidSignatureError):
            Signature.from_bytes(b"\x00" * 10)

    def test_out_of_range_r_rejected(self, key):
        signature = key.sign(b"msg")
        forged = Signature(r=0, s=signature.s, v=signature.v)
        assert not key.public_key.verify(b"msg", forged)

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=0, max_size=64))
    def test_sign_verify_property(self, message):
        key = PrivateKey.from_seed(b"property-test")
        assert key.public_key.verify(message, key.sign(message))


class TestNonceHintIsNotPartOfTheSignature:
    def test_equality_hash_and_wire_format_ignore_the_hint(self, key):
        signed = key.sign(b"hinted")
        assert signed.nonce_y is not None
        bare = Signature(signed.r, signed.s, signed.v)
        other = Signature(signed.r, signed.s, signed.v, nonce_y=12345)
        assert bare.nonce_y is None
        assert signed == bare == other
        assert hash(signed) == hash(bare) == hash(other)
        assert len({signed, bare, other}) == 1
        assert signed.to_bytes() == bare.to_bytes() == other.to_bytes()
        assert len(signed.to_bytes()) == 65
        assert repr(signed) == repr(bare)

    def test_wire_round_trip_drops_the_hint_and_still_verifies(self, key):
        signed = key.sign(b"wire")
        parsed = Signature.from_bytes(signed.to_bytes())
        assert parsed == signed and parsed.nonce_y is None
        assert key.public_key.verify(b"wire", parsed)


class TestMalleabilityHardening:
    """r/s range and low-s checks happen before any EC math runs."""

    def test_high_s_twin_rejected_by_verify(self, key):
        signature = key.sign(b"msg")
        # (r, n - s) verifies under textbook ECDSA — it must NOT here.
        twin = Signature(r=signature.r, s=N - signature.s, v=signature.v ^ 1)
        assert not key.public_key.verify(b"msg", twin)

    @pytest.mark.parametrize("r", [0, N, N + 1])
    def test_out_of_range_r_rejected_by_verify(self, key, r):
        signature = key.sign(b"msg")
        forged = Signature(r=r, s=signature.s, v=signature.v)
        assert not key.public_key.verify(b"msg", forged)

    @pytest.mark.parametrize("s", [0, N, N + 1])
    def test_out_of_range_s_rejected_by_verify(self, key, s):
        signature = key.sign(b"msg")
        forged = Signature(r=signature.r, s=s, v=signature.v)
        assert not key.public_key.verify(b"msg", forged)

    def test_from_bytes_rejects_zero_r(self, key):
        signature = key.sign(b"msg")
        data = (0).to_bytes(32, "big") + signature.s.to_bytes(32, "big") \
            + bytes([signature.v])
        with pytest.raises(InvalidSignatureError):
            Signature.from_bytes(data)

    def test_from_bytes_rejects_overflow_s(self, key):
        signature = key.sign(b"msg")
        data = signature.r.to_bytes(32, "big") + N.to_bytes(32, "big") \
            + bytes([signature.v])
        with pytest.raises(InvalidSignatureError):
            Signature.from_bytes(data)

    def test_from_bytes_rejects_high_s(self, key):
        signature = key.sign(b"msg")
        data = signature.r.to_bytes(32, "big") \
            + (N - signature.s).to_bytes(32, "big") + bytes([signature.v])
        with pytest.raises(InvalidSignatureError):
            Signature.from_bytes(data)

    def test_from_bytes_accepts_valid(self, key):
        signature = key.sign(b"msg")
        assert Signature.from_bytes(signature.to_bytes()) == signature


class TestVerificationCache:
    def test_replay_skips_ec_math(self, key, monkeypatch):
        import repro.crypto.ecdsa as ecdsa_module

        message = b"cache me"
        signature = key.sign(message)
        public = key.public_key
        ecdsa_module._VERIFY_CACHE.clear()
        calls = 0
        real = ecdsa_module.ec_backend.double_scalar_mult_base

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(ecdsa_module.ec_backend,
                            "double_scalar_mult_base", counting)
        assert public.verify(message, signature)
        assert public.verify(message, signature)
        assert public.verify(message, signature)
        assert calls == 1

    def test_failures_are_cached_too(self, key, monkeypatch):
        import repro.crypto.ecdsa as ecdsa_module

        message = b"bad sig"
        signature = key.sign(b"something else")
        ecdsa_module._VERIFY_CACHE.clear()
        assert not key.public_key.verify(message, signature)
        monkeypatch.setattr(
            ecdsa_module.ec_backend, "double_scalar_mult_base",
            lambda *args: pytest.fail("EC math ran on a cached outcome"),
        )
        assert not key.public_key.verify(message, signature)


class TestECDH:
    def test_symmetric(self, rng):
        a = PrivateKey.generate(rng)
        b = PrivateKey.generate(rng)
        assert shared_secret(a, b.public_key) == shared_secret(b, a.public_key)

    def test_distinct_pairs_distinct_secrets(self, rng):
        a, b, c = (PrivateKey.generate(rng) for _ in range(3))
        assert shared_secret(a, b.public_key) != shared_secret(a, c.public_key)

    def test_secret_is_32_bytes(self, rng):
        a, b = PrivateKey.generate(rng), PrivateKey.generate(rng)
        assert len(shared_secret(a, b.public_key)) == 32
