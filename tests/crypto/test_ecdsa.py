"""Tests for secp256k1 ECDSA and ECDH."""

from __future__ import annotations

import pickle
from functools import lru_cache

import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ec_backend
from repro.crypto import ecdsa as ecdsa_module
from repro.crypto.ecdsa import (
    GX,
    GY,
    N,
    P,
    PrivateKey,
    PublicKey,
    Signature,
    _batch_equation_holds,
    _recover_nonce_point,
    batch_verify,
    shared_secret,
)
from repro.crypto.hashing import hash_to_int, keccak256
from repro.errors import InvalidKeyError, InvalidSignatureError
from tests.crypto.affine_oracle import point_add, point_mul
from tests.crypto.rule import WIDTH, equation_from

G = (GX, GY)


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

    @staticmethod
    def _single_verdicts():
        return [ecdsa_module._VERIFY_TOTAL.labels(path="single",
                                                  outcome=outcome).value
                for outcome in ("ok", "fail")]

    @pytest.mark.parametrize("case", ["high_s", "r_zero", "r_n", "s_zero",
                                      "s_n"])
    def test_a_refused_scalar_counts_as_a_single_failure(self, key, case,
                                                         monkeypatch):
        """A scalar refused before any curve math is still a verdict:
        ``pds2_crypto_verify_total{path="single",outcome="fail"}`` counts
        it, as ``batch_verify`` counts its own refusals, and OpenSSL is
        not asked."""
        signature = key.sign(b"msg")
        r, s = {"high_s": (signature.r, N - signature.s),
                "r_zero": (0, signature.s), "r_n": (N, signature.s),
                "s_zero": (signature.r, 0), "s_n": (signature.r, N)}[case]
        handle = CountingHandle(key.public_key._openssl)
        monkeypatch.setitem(vars(key.public_key), "_openssl", handle)
        before = self._single_verdicts()
        assert not key.public_key.verify(b"msg", Signature(r, s, 0))
        after = self._single_verdicts()
        assert [a - b for a, b in zip(after, before)] == [0, 1]
        assert handle.calls == 0

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

    @pytest.mark.parametrize("v", [2, 3, 27, 255])
    def test_from_bytes_rejects_a_non_canonical_v(self, key, v):
        # Both verifiers read only v's parity, so any other byte would be
        # a second, unequal encoding of one valid signature.
        signature = key.sign(b"msg")
        with pytest.raises(InvalidSignatureError, match="v is not 0 or 1"):
            Signature.from_bytes(signature.to_bytes()[:64] + bytes([v]))


class CountingHandle:
    """Stands in for a public key's OpenSSL handle and counts its checks."""

    def __init__(self, real):
        self.real = real
        self.calls = 0

    def verify(self, **kwargs):
        self.calls += 1
        return self.real.verify(**kwargs)


class TestNoVerdictIsKept:
    def test_every_check_runs_openssl(self, key, monkeypatch):
        message = b"checked each time"
        good, bad = key.sign(message), key.sign(b"something else")
        handle = CountingHandle(key.public_key._openssl)
        monkeypatch.setitem(vars(key.public_key), "_openssl", handle)
        assert [key.public_key.verify(message, signature)
                for signature in (good, good, bad, bad)] == \
            [True, True, False, False]
        assert handle.calls == 4


def _policy(signature: Signature) -> bool:
    """The scalar checks every verifier runs before any curve math."""
    return 1 <= signature.r < N and 1 <= signature.s <= N // 2


def _oracle_verdict(public_key, message, signature) -> bool:
    """Textbook ECDSA on the affine oracle, behind the same policy."""
    if not _policy(signature):
        return False
    w = pow(signature.s, -1, N)
    digest = hash_to_int(message, N)
    point = point_add(point_mul(digest * w % N, G),
                      point_mul(signature.r * w % N,
                                (public_key.x, public_key.y)))
    return point is not None and point[0] % N == signature.r


def _equation_verdict(public_key, message, signature) -> bool:
    """The Python batch equation over this one entry, behind the same
    policy: ``u1·G + u2·Q − R = 𝒪`` with ``R`` recovered from ``(r, v)``."""
    if not _policy(signature):
        return False
    nonce_point = _recover_nonce_point(signature.r, signature.v)
    if nonce_point is None:
        return False
    w = pow(signature.s, -1, N)
    digest = hash_to_int(message, N)
    return _batch_equation_holds([(digest * w % N, signature.r * w % N,
                                   (public_key.x, public_key.y),
                                   nonce_point)])


@lru_cache(maxsize=None)
def _fillers() -> tuple:
    """Valid signatures that widen one entry to the narrowest batch
    ``batch_verify`` checks by the equation."""
    keys = [PrivateKey.from_seed(b"filler-%d" % index) for index in range(8)]
    return tuple((keys[index % 8].public_key, b"filler-%d" % index,
                  keys[index % 8].sign(b"filler-%d" % index))
                 for index in range(WIDTH - 1))


def _batch_verdict(public_key, message, signature) -> bool:
    """``batch_verify``'s verdict on the entry among 31 valid others: one
    32-signature equation, or the checks of all 32 when it fails."""
    with equation_from(WIDTH):
        verdicts = batch_verify([(public_key, message, signature)]
                                + list(_fillers()))
    assert verdicts[1:] == [True] * len(_fillers())
    return verdicts[0]


CASES = ["valid", "forged_s", "forged_r", "wrong_key", "wrong_digest",
         "high_s", "r_zero", "r_n", "s_zero", "s_n"]


class TestThreeVerifiersAgree:
    """OpenSSL's :meth:`PublicKey.verify`, the Python batch equation and
    the affine oracle: three implementations, one verdict — and
    ``batch_verify`` on a 32-signature batch gives it too."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CASES), st.integers(1, 2**32),
           st.binary(max_size=32), st.integers(1, N - 1))
    def test_verdicts_agree(self, case, seed, message, noise):
        signer = PrivateKey.from_seed(b"three-%d" % seed)
        signature = signer.sign(message)
        public_key = signer.public_key
        r, s, v = signature.r, signature.s, signature.v
        if case == "forged_s":
            s = noise % (N // 2) + 1
            if s == signature.s:
                s = s % (N // 2) + 1
        elif case == "forged_r":
            r = r % (N - 1) + 1
        elif case == "wrong_key":
            public_key = PrivateKey.from_seed(b"other-%d" % seed).public_key
        elif case == "wrong_digest":
            message += b"!"
        elif case == "high_s":
            s = N - s
        elif case != "valid":
            field_name, value = case.split("_")
            bad = {"zero": 0, "n": N}[value]
            r, s = (bad, s) if field_name == "r" else (r, bad)
        forged = Signature(r, s, v)
        verdicts = (public_key.verify(message, forged),
                    _equation_verdict(public_key, message, forged),
                    _oracle_verdict(public_key, message, forged),
                    _batch_verdict(public_key, message, forged))
        assert verdicts == ((case == "valid"),) * 4, case


class TestECDH:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, N - 1), st.integers(1, N - 1))
    def test_secret_is_the_oracles_x_coordinate(self, own, peer):
        peer_key = PrivateKey(peer).public_key
        x = point_mul(own, (peer_key.x, peer_key.y))[0]
        assert shared_secret(PrivateKey(own), peer_key) == \
            keccak256(b"ecdh" + x.to_bytes(32, "big"))

    def test_short_x_is_padded_to_32_bytes(self):
        own, peer = PrivateKey.from_seed(b"z41"), PrivateKey.from_seed(b"b")
        x = point_mul(own.secret, (peer.public_key.x, peer.public_key.y))[0]
        assert x < 2**248  # a leading zero byte
        assert shared_secret(own, peer.public_key) == \
            keccak256(b"ecdh" + x.to_bytes(32, "big"))

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


class TestOpenSSLHandles:
    def test_keys_pickle_after_use(self, rng):
        own, peer = PrivateKey.generate(rng), PrivateKey.generate(rng)
        signature = own.sign(b"pickled")
        assert own.public_key.verify(b"pickled", signature)
        secret = shared_secret(own, peer.public_key)
        assert "_openssl" in vars(own) and "_openssl" in vars(own.public_key)
        own_copy = pickle.loads(pickle.dumps(own))
        public_copy = pickle.loads(pickle.dumps(own.public_key))
        assert own_copy == own and public_copy == own.public_key
        assert "_openssl" not in vars(own_copy)
        assert "_openssl" not in vars(public_copy)
        assert public_copy.verify(b"pickled", own_copy.sign(b"pickled"))
        assert shared_secret(own_copy, peer.public_key) == secret
        assert shared_secret(peer, public_copy) == secret

    def test_each_key_builds_its_own_handle(self, key):
        twin = PrivateKey(key.secret)
        assert twin == key and twin._openssl is not key._openssl

    def test_each_key_derives_its_own_point_and_address(self, key,
                                                        monkeypatch):
        assert key.address == key.public_key.address  # derived, kept
        derivations = []
        real = ec_backend.scalar_mult_base
        monkeypatch.setattr(ec_backend, "scalar_mult_base",
                            lambda k: derivations.append(k) or real(k))
        twin = PrivateKey(key.secret)
        assert twin.public_key == key.public_key
        assert twin.public_key is not key.public_key
        assert twin.address == key.address
        assert derivations == [key.secret]  # once for the twin, not again
        assert key.public_key.address is vars(key.public_key)["address"]

    def test_pickled_state_after_use_is_the_key_alone(self, rng):
        own, peer = PrivateKey.generate(rng), PrivateKey.generate(rng)
        signature = own.sign(b"used")
        assert own.public_key.verify(b"used", signature)
        shared_secret(own, peer.public_key)
        assert own.address == own.public_key.address
        assert {"public_key", "_openssl"} <= set(vars(own))
        assert {"address", "_openssl"} <= set(vars(own.public_key))
        assert set(vars(pickle.loads(pickle.dumps(own)))) == {"secret"}
        assert set(vars(pickle.loads(pickle.dumps(own.public_key)))) == \
            {"x", "y"}

    def test_an_openssl_value_error_is_an_invalid_key(self, rng, monkeypatch):
        own, peer = PrivateKey.generate(rng), PrivateKey.generate(rng)
        other_curve = ec.derive_private_key(5, ec.SECP256R1()).public_key()
        monkeypatch.setitem(vars(peer.public_key), "_openssl", other_curve)
        with pytest.raises(InvalidKeyError):
            shared_secret(own, peer.public_key)

    def test_an_openssl_error_is_a_failed_verify(self, key, monkeypatch):
        class Refusing:
            def verify(self, **kwargs):
                raise ValueError("refused")

        signature = key.sign(b"refused")
        monkeypatch.setitem(vars(key.public_key), "_openssl", Refusing())
        assert key.public_key.verify(b"refused", signature) is False
