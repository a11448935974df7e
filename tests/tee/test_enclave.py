"""Tests for simulated enclaves: measurement, isolation, sealing."""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.workload import enclave_entry_point
from repro.crypto.ecdsa import PrivateKey
from repro.errors import EnclaveViolationError, SealingError
from repro.tee.enclave import Enclave, EnclaveCode, TEEPlatform, _measured_text


def echo_entry(inputs, suffix=""):
    return {"echo": inputs.get("data", b"").decode() + suffix}


def other_entry(inputs):
    return {"other": True}


@pytest.fixture
def platform(rng):
    return TEEPlatform("plat-1", rng)


@pytest.fixture
def code():
    return EnclaveCode(name="test", version="1", entry_point=echo_entry)


class TestMeasurement:
    def test_measurement_deterministic(self, code):
        again = EnclaveCode(name="test", version="1", entry_point=echo_entry)
        assert code.measurement == again.measurement

    def test_measurement_covers_version(self, code):
        v2 = EnclaveCode(name="test", version="2", entry_point=echo_entry)
        assert code.measurement != v2.measurement

    def test_measurement_covers_code(self, code):
        different = EnclaveCode(name="test", version="1",
                                entry_point=other_entry)
        assert code.measurement != different.measurement

    def test_measurement_is_32_bytes(self, code):
        assert len(code.measurement) == 32

    def test_golden_measurement_of_sourced_code(self):
        """Computed at commit f47aa5d, before measurements were cached."""
        code = EnclaveCode("pds2-golden", "1.0", enclave_entry_point)
        assert code.measurement.hex() == (
            "602e6024d961ddba8b5470631c9e8633"
            "38168d8320d2ff5551a642516b68d2eb")


class TestSourcelessMeasurement:
    """No retrievable source: the qualified name, never a memory address."""

    SOURCELESS = (len, functools.partial(echo_entry, suffix="!"),
                  eval("lambda inputs: inputs"))

    def test_fallback_holds_no_address(self):
        assert "0x" in repr(self.SOURCELESS[1])
        assert "0x" in repr(self.SOURCELESS[2])
        for entry_point in self.SOURCELESS:
            assert "0x" not in _measured_text(entry_point)
        assert _measured_text(len) == "builtins.len"
        assert _measured_text(self.SOURCELESS[1]) == "functools.partial"

    def test_sourceless_units_still_differ(self):
        measurements = {EnclaveCode("c", "1", entry_point).measurement
                        for entry_point in self.SOURCELESS}
        assert len(measurements) == len(self.SOURCELESS)

    def test_same_identity_in_every_process(self):
        script = (
            "import functools\n"
            "import sys\n"
            "from repro.tee.enclave import EnclaveCode\n"
            "heap_shift = [object() for _ in range(int(sys.argv[1]))]\n"
            "for entry in (len, functools.partial(len),\n"
            "              eval('lambda inputs: inputs')):\n"
            "    print(EnclaveCode('c', '1', entry).measurement.hex())\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="random")
        outputs = [
            subprocess.run([sys.executable, "-c", script, padding],
                           env=env, capture_output=True, text=True,
                           check=True, timeout=120).stdout
            for padding in ("0", "5000")
        ]
        assert outputs[0] == outputs[1]
        assert len(outputs[0].split()) == 3
        assert outputs[0].split()[0] == EnclaveCode(
            "c", "1", len).measurement.hex()


class TestExecution:
    def test_plain_input_and_run(self, platform, code):
        enclave = platform.launch(code)
        enclave.provision_plain("data", b"hello")
        enclave.run(suffix="!")
        assert enclave.extract_output() == {"echo": "hello!"}

    def test_double_run_rejected(self, platform, code):
        enclave = platform.launch(code)
        enclave.provision_plain("data", b"x")
        enclave.run()
        with pytest.raises(EnclaveViolationError):
            enclave.run()

    def test_extract_before_run_rejected(self, platform, code):
        enclave = platform.launch(code)
        with pytest.raises(EnclaveViolationError):
            enclave.extract_output()

    def test_transition_counting(self, platform, code):
        enclave = platform.launch(code)
        enclave.provision_plain("data", b"x")
        enclave.run()
        enclave.extract_output()
        assert enclave.call_transitions == 3


class TestConfidentialInput:
    def test_encrypted_provisioning(self, platform, code, rng):
        enclave = platform.launch(code)
        sender = PrivateKey.generate(rng)
        envelope = Enclave.encrypt_for_enclave(
            enclave.ephemeral_public_key, sender, b"secret-readings", rng
        )
        enclave.provision_input("data", envelope, sender.public_key)
        enclave.run()
        assert enclave.extract_output() == {"echo": "secret-readings"}

    def test_envelope_hides_plaintext(self, platform, code, rng):
        enclave = platform.launch(code)
        sender = PrivateKey.generate(rng)
        envelope = Enclave.encrypt_for_enclave(
            enclave.ephemeral_public_key, sender, b"secret-readings", rng
        )
        assert b"secret-readings" not in envelope.to_bytes()

    def test_wrong_sender_key_rejected(self, platform, code, rng):
        enclave = platform.launch(code)
        sender = PrivateKey.generate(rng)
        imposter = PrivateKey.generate(rng)
        envelope = Enclave.encrypt_for_enclave(
            enclave.ephemeral_public_key, sender, b"data", rng
        )
        with pytest.raises(EnclaveViolationError):
            enclave.provision_input("data", envelope, imposter.public_key)

    def test_wrong_enclave_rejected(self, platform, code, rng):
        enclave_a = platform.launch(code)
        enclave_b = platform.launch(code)
        sender = PrivateKey.generate(rng)
        envelope = Enclave.encrypt_for_enclave(
            enclave_a.ephemeral_public_key, sender, b"data", rng
        )
        # Each enclave instance has a distinct ephemeral key.
        with pytest.raises(EnclaveViolationError):
            enclave_b.provision_input("data", envelope, sender.public_key)


class TestEncryptedOutput:
    def test_output_to_consumer(self, platform, code, rng):
        from repro.crypto.ecdsa import shared_secret
        from repro.crypto.symmetric import decrypt
        from repro.utils.serialization import from_canonical_json

        enclave = platform.launch(code)
        enclave.provision_plain("data", b"payload")
        enclave.run()
        consumer = PrivateKey.generate(rng)
        envelope = enclave.extract_output(consumer.public_key)
        key = shared_secret(consumer, enclave.ephemeral_public_key)
        result = from_canonical_json(decrypt(key, envelope))
        assert result == {"echo": "payload"}


class TestSealing:
    def test_seal_unseal_round_trip(self, platform, code):
        enclave = platform.launch(code)
        blob = enclave.seal(b"model-checkpoint")
        assert enclave.unseal(blob) == b"model-checkpoint"

    def test_same_code_same_platform_unseals(self, platform, code):
        first = platform.launch(code)
        second = platform.launch(code)
        blob = first.seal(b"state")
        assert second.unseal(blob) == b"state"

    def test_different_code_cannot_unseal(self, platform, code):
        enclave = platform.launch(code)
        blob = enclave.seal(b"state")
        v2 = platform.launch(
            EnclaveCode(name="test", version="2", entry_point=echo_entry)
        )
        with pytest.raises(SealingError):
            v2.unseal(blob)

    def test_different_platform_cannot_unseal(self, platform, code, rng):
        enclave = platform.launch(code)
        blob = enclave.seal(b"state")
        other_platform = TEEPlatform("plat-2", rng)
        with pytest.raises(SealingError):
            other_platform.launch(code).unseal(blob)

    def test_sealed_blob_hides_content(self, platform, code):
        enclave = platform.launch(code)
        blob = enclave.seal(b"find-this-secret")
        assert b"find-this-secret" not in blob.to_bytes()
