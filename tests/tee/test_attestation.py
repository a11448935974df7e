"""Tests for remote attestation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto.ecdsa import N, PrivateKey, PublicKey
from repro.errors import AttestationError
from repro.tee.attestation import AttestationService, Quote
from repro.tee.enclave import EnclaveCode, TEEPlatform


def workload_entry(inputs):
    return {"done": True}


@pytest.fixture
def service():
    return AttestationService()


@pytest.fixture
def platform(rng, service):
    platform = TEEPlatform("plat-1", rng)
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
        assert (key.x, key.y) == (enclave.ephemeral_public_key.x,
                                  enclave.ephemeral_public_key.y)

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
        attacker_key = PrivateKey.generate(rng).public_key.to_bytes()
        forged = dataclasses.replace(quote, report_data=attacker_key)
        with pytest.raises(AttestationError):
            service.verify(forged)

    def test_impersonated_platform_rejected(self, service, platform, code,
                                            rng):
        enclave = platform.launch(code)
        quote = AttestationService.produce_quote(enclave)
        attacker = PrivateKey.generate(rng)
        forged = dataclasses.replace(
            quote,
            platform_public_key=attacker.public_key,
            signature=attacker.sign(quote.payload_bytes(
                quote.platform_id, quote.measurement, quote.report_data
            )),
        )
        with pytest.raises(AttestationError):
            service.verify(forged)


class TestQuoteKeptByEnclave:
    """A quote is a pure function of the enclave, so it is signed once."""

    def test_same_bytes_as_a_fresh_signature(self, platform, code):
        enclave = platform.launch(code)
        quote = AttestationService.produce_quote(enclave)
        payload = Quote.payload_bytes(
            platform.platform_id, enclave.measurement,
            enclave.ephemeral_public_key.to_bytes())
        assert quote.signature == platform.attestation_key.sign(payload)
        assert quote.report_data == enclave.ephemeral_public_key.to_bytes()
        assert quote.measurement == code.measurement

    def test_one_signature_per_enclave(self, platform, code, monkeypatch):
        signed = []
        real = PrivateKey.sign

        def recording(key, message):
            signed.append(key)
            return real(key, message)

        monkeypatch.setattr(PrivateKey, "sign", recording)
        first, second = platform.launch(code), platform.launch(code)
        quotes = [AttestationService.produce_quote(enclave)
                  for enclave in (first, second, first, first, second)]
        assert signed == [platform.attestation_key] * 2
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
def checks(monkeypatch):
    """The public keys ``PublicKey.verify`` is called on, in order."""
    called = []
    real = PublicKey.verify
    monkeypatch.setattr(PublicKey, "verify",
                        lambda key, message, signature: called.append(key)
                        or real(key, message, signature))
    return called


class TestServiceRemembersCheckedQuotes:
    """A service checks a quote's signature once; the verdict is its own."""

    def test_two_services_each_check_a_quote_once(self, platform, service,
                                                  code, checks):
        other = AttestationService()
        other.provision_platform(platform)
        quote = AttestationService.produce_quote(platform.launch(code))
        for verifier in (service, other, service, other, service):
            verifier.verify(quote, expected_measurement=code.measurement)
        assert checks == [platform.attestation_key.public_key] * 2

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
        signature = quote.signature
        forged = dataclasses.replace(quote, signature=dataclasses.replace(
            signature, s=signature.s % (N // 2) + 1))
        with pytest.raises(AttestationError, match="invalid quote signature"):
            service.verify(forged)
        # The forgery was checked and not remembered: the genuine quote
        # still needs no second check.
        service.verify(quote)
        assert len(checks) == 2
