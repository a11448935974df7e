"""Tests for remote attestation."""

from __future__ import annotations

import dataclasses

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    PublicFormat,
)

from repro.errors import AttestationError
from repro.tee.attestation import AttestationService, Quote
from repro.tee.enclave import EnclaveCode, TEEPlatform
from tests.tee.counting_key import CountingKey

#: How quotes are signed: ECDSA-SHA256 with RFC 6979 nonces.
SIGNING = ec.ECDSA(hashes.SHA256(), deterministic_signing=True)


def workload_entry(inputs):
    return {"done": True}


def point(public_key) -> bytes:
    return public_key.public_bytes(Encoding.X962,
                                   PublicFormat.UncompressedPoint)


@pytest.fixture
def service():
    return AttestationService()


@pytest.fixture
def platform(rng, service):
    platform = TEEPlatform("plat-1", rng)
    platform.attestation_key = CountingKey(platform.attestation_key)
    service.provision_platform(platform)
    return platform


@pytest.fixture
def code():
    return EnclaveCode(name="wl", version="1", entry_point=workload_entry)


class TestProvisioning:
    def test_double_provisioning_rejected(self, service, platform):
        with pytest.raises(AttestationError):
            service.provision_platform(platform)

    def test_revoking_unknown_rejected(self, service):
        with pytest.raises(AttestationError):
            service.revoke_platform("ghost")


class TestQuotes:
    def test_valid_quote_verifies(self, service, platform, code):
        enclave = platform.launch(code)
        quote = AttestationService.produce_quote(enclave)
        key = service.verify(quote)
        assert key.public_bytes_raw() == (
            enclave.ephemeral_public_key.public_bytes_raw())

    def test_platform_key_is_p256(self, rng):
        key = TEEPlatform("plat-2", rng).attestation_key
        assert isinstance(key.curve, ec.SECP256R1)

    def test_expected_measurement_enforced(self, service, platform, code):
        enclave = platform.launch(code)
        quote = AttestationService.produce_quote(enclave)
        service.verify(quote, expected_measurement=code.measurement)
        with pytest.raises(AttestationError):
            service.verify(quote, expected_measurement=b"\x00" * 32)

    def test_unprovisioned_platform_rejected(self, service, rng, code):
        rogue = TEEPlatform("rogue", rng)
        quote = AttestationService.produce_quote(rogue.launch(code))
        with pytest.raises(AttestationError):
            service.verify(quote)

    def test_revoked_platform_rejected(self, service, platform, code):
        enclave = platform.launch(code)
        quote = AttestationService.produce_quote(enclave)
        service.revoke_platform(platform.platform_id)
        with pytest.raises(AttestationError):
            service.verify(quote)

    def test_forged_measurement_rejected(self, service, platform, code):
        enclave = platform.launch(code)
        quote = AttestationService.produce_quote(enclave)
        forged = dataclasses.replace(quote, measurement=b"\xff" * 32)
        with pytest.raises(AttestationError):
            service.verify(forged)

    def test_forged_report_data_rejected(self, service, platform, code, rng):
        enclave = platform.launch(code)
        quote = AttestationService.produce_quote(enclave)
        attacker_key = X25519PrivateKey.from_private_bytes(
            rng.bytes(32)).public_key().public_bytes_raw()
        forged = dataclasses.replace(quote, report_data=attacker_key)
        with pytest.raises(AttestationError, match="invalid quote signature"):
            service.verify(forged)

    @pytest.mark.parametrize("size", [0, 31, 33, 65])
    def test_malformed_report_data_rejected(self, service, platform, code,
                                            size):
        """Report data the platform signed but that is no X25519 key."""
        quote = AttestationService.produce_quote(platform.launch(code))
        report_data = bytes(range(size))
        signed = dataclasses.replace(
            quote, report_data=report_data,
            signature=platform.attestation_key.sign(Quote.payload_bytes(
                quote.platform_id, quote.measurement, report_data), SIGNING))
        with pytest.raises(AttestationError, match="not an X25519 key"):
            service.verify(signed)

    def test_impersonated_platform_rejected(self, service, platform, code,
                                            rng):
        enclave = platform.launch(code)
        quote = AttestationService.produce_quote(enclave)
        attacker = ec.derive_private_key(
            int.from_bytes(rng.bytes(16), "big") + 1, ec.SECP256R1())
        forged = dataclasses.replace(
            quote,
            platform_public_key=point(attacker.public_key()),
            signature=attacker.sign(quote.payload_bytes(
                quote.platform_id, quote.measurement, quote.report_data
            ), SIGNING),
        )
        with pytest.raises(AttestationError, match="does not match"):
            service.verify(forged)
        # The attacker's signature under the genuine key is no better.
        with pytest.raises(AttestationError, match="invalid quote signature"):
            service.verify(dataclasses.replace(
                forged, platform_public_key=quote.platform_public_key))


class TestQuoteKeptByEnclave:
    """A quote is a pure function of the enclave, so it is signed once."""

    def test_same_bytes_as_a_fresh_signature(self, platform, code):
        enclave = platform.launch(code)
        quote = AttestationService.produce_quote(enclave)
        raw = enclave.ephemeral_public_key.public_bytes_raw()
        payload = Quote.payload_bytes(
            platform.platform_id, enclave.measurement, raw)
        assert quote.signature == platform.attestation_key.sign(payload,
                                                                SIGNING)
        assert quote.report_data == raw and len(raw) == 32
        assert quote.measurement == code.measurement

    def test_one_signature_per_enclave(self, platform, code):
        first, second = platform.launch(code), platform.launch(code)
        quotes = [AttestationService.produce_quote(enclave)
                  for enclave in (first, second, first, first, second)]
        assert len(platform.attestation_key.signed) == 2
        assert quotes[0] is quotes[2] is quotes[3]
        assert quotes[1] is quotes[4]
        assert quotes[0].report_data != quotes[1].report_data

    def test_terminate_drops_the_quote(self, platform, code):
        enclave = platform.launch(code)
        AttestationService.produce_quote(enclave)
        enclave.terminate()
        assert enclave.quote is None

    def test_kept_quote_of_a_revoked_platform_still_fails(
            self, service, platform, code):
        enclave = platform.launch(code)
        quote = AttestationService.produce_quote(enclave)
        service.verify(quote)
        service.revoke_platform(platform.platform_id)
        assert AttestationService.produce_quote(enclave) is quote
        with pytest.raises(AttestationError, match="revoked"):
            service.verify(quote)


@pytest.fixture
def checks(platform):
    """The payloads whose signature was checked against the platform's
    key, in order."""
    return platform.attestation_key.checked


class TestServiceRemembersCheckedQuotes:
    """A service checks a quote's signature once; the verdict is its own."""

    def test_two_services_each_check_a_quote_once(self, platform, service,
                                                  code, checks):
        other = AttestationService()
        other.provision_platform(platform)
        quote = AttestationService.produce_quote(platform.launch(code))
        for verifier in (service, other, service, other, service):
            verifier.verify(quote, expected_measurement=code.measurement)
        assert checks == [Quote.payload_bytes(
            quote.platform_id, quote.measurement, quote.report_data)] * 2

    def test_a_new_quote_replaces_the_remembered_one(self, platform, service,
                                                     code, checks):
        first, second = (AttestationService.produce_quote(platform.launch(code))
                         for _ in range(2))
        for quote in (first, second, second, first):
            service.verify(quote)
        assert len(checks) == 3
        assert service._verified == {platform.platform_id: first}

    def test_revoked_after_its_quote_was_checked_fails_that_quote(
            self, platform, service, code):
        quote = AttestationService.produce_quote(platform.launch(code))
        service.verify(quote)
        service.revoke_platform(platform.platform_id)
        assert service._verified == {}
        with pytest.raises(AttestationError, match="revoked"):
            service.verify(quote)

    def test_a_forged_signature_on_the_remembered_quote_is_rejected(
            self, platform, service, code, checks):
        quote = AttestationService.produce_quote(platform.launch(code))
        service.verify(quote)
        forged = dataclasses.replace(
            quote, signature=quote.signature[:-1]
            + bytes([quote.signature[-1] ^ 1]))
        with pytest.raises(AttestationError, match="invalid quote signature"):
            service.verify(forged)
        # The forgery was checked and not remembered: the genuine quote
        # still needs no second check.
        service.verify(quote)
        assert len(checks) == 2
