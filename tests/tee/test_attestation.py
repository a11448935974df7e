"""Tests for remote attestation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto.ecdsa import PrivateKey
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

    def test_is_provisioned(self, service, platform):
        assert service.is_provisioned(platform.platform_id)
        assert not service.is_provisioned("unknown")

    def test_revocation(self, service, platform):
        service.revoke_platform(platform.platform_id)
        assert not service.is_provisioned(platform.platform_id)

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
