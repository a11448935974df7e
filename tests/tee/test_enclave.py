"""Tests for simulated enclaves: measurement, isolation, sealing."""

from __future__ import annotations

import functools
import hashlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.core.workload import enclave_entry_point
from repro.crypto.ecdsa import PrivateKey
from repro.errors import EnclaveViolationError, SealingError
from repro.tee.enclave import Enclave, EnclaveCode, TEEPlatform, _describe


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
        """Against a recomputation that shares no code with ``enclave.py``.

        There is no pinned hex: bytecode belongs to the interpreter, so the
        identity is per Python minor version (DESIGN §6).
        """
        code = EnclaveCode("pds2-golden", "1.0", enclave_entry_point)
        assert code.measurement == recompute_measurement(
            "pds2-golden", "1.0", enclave_entry_point)
        assert recompute_measurement("pds2-golden", "1.1",
                                     enclave_entry_point) != code.measurement

    def test_measurement_covers_what_runs_and_not_where_it_came_from(self):
        def unit(source: str, filename: str) -> EnclaveCode:
            namespace: dict = {}
            exec(compile(source, filename, "exec"), namespace)
            return EnclaveCode("c", "1", namespace["entry"])

        plain = unit(SOURCE, "a.py")
        # Comments, blank lines, another (missing) file: the same identity.
        assert plain.measurement == unit(
            "# moved\n\n\n" + SOURCE.replace("total = 0", "total = 0  # sum"),
            "/nowhere/b.py").measurement
        # One constant, one name, one default, one nested constant: another.
        edits = [("total = 0", "total = 1"), ("sorted", "list"),
                 ("scale=2", "scale=3"), ("value * scale", "value + scale"),
                 ("{1, 2}", "{1, 3}")]
        measurements = {unit(SOURCE.replace(old, new), "a.py").measurement
                        for old, new in edits}
        assert len(measurements) == len(edits)
        assert plain.measurement not in measurements


SOURCE = """
def entry(inputs, scale=2):
    total = 0
    for value in sorted(inputs):
        if value in {1, 2}:
            total += (lambda: value * scale)()
    return total
"""


def recompute_measurement(name: str, version: str, function) -> bytes:
    """The measurement of a plain function, written out a second time."""
    def constant(value) -> str:
        if isinstance(value, types.CodeType):
            return code(value)
        if isinstance(value, tuple):
            return "(" + ",".join(constant(item) for item in value) + ")"
        if isinstance(value, frozenset):
            return "{" + ",".join(sorted(constant(item)
                                         for item in value)) + "}"
        return type(value).__name__ + ":" + repr(value)

    def code(co: types.CodeType) -> str:
        return "code(" + ",".join([
            constant(co.co_code),
            constant(getattr(co, "co_exceptiontable", b"")),
            constant(co.co_consts), constant(co.co_names),
            constant(co.co_varnames), constant(co.co_freevars),
            constant(co.co_cellvars), constant(co.co_argcount),
            constant(co.co_posonlyargcount), constant(co.co_kwonlyargcount),
            constant(co.co_flags)]) + ")"

    assert not function.__kwdefaults__
    described = "function(%s,%s,NoneType:None)" % (
        code(function.__code__), constant(function.__defaults__))
    digest = hashlib.sha3_256(described.encode()).hexdigest()
    return hashlib.sha3_256(
        "\x00".join([name, version, digest]).encode()).digest()


class TestSourcelessMeasurement:
    """Source is never read.  A lambda is its code object, a ``partial`` the
    function it wraps plus what it binds, and only a callable with no code
    object is its qualified name — never a memory address."""

    SOURCELESS = (len, functools.partial(echo_entry, suffix="!"),
                  eval("lambda inputs: inputs"))

    def test_fallback_holds_no_address(self):
        assert "0x" in repr(self.SOURCELESS[1])
        assert "0x" in repr(self.SOURCELESS[2])
        for entry_point in self.SOURCELESS:
            assert "0x" not in _describe(entry_point)
        assert _describe(len) == "builtins.len"
        assert _describe(self.SOURCELESS[1]) == (
            "partial(%s,(),{str:'suffix'=str:'!'})" % _describe(echo_entry))

    def test_sourceless_units_still_differ(self):
        entry_points = self.SOURCELESS + (
            # Two lambdas, two partials: one identity each (they used to
            # share "<lambda>" and "functools.partial").
            eval("lambda inputs: None"),
            functools.partial(echo_entry, suffix="?"),
            functools.partial(other_entry),
        )
        measurements = {EnclaveCode("c", "1", entry_point).measurement
                        for entry_point in entry_points}
        assert len(measurements) == len(entry_points)
        assert EnclaveCode("c", "1", eval("lambda inputs: inputs")
                           ).measurement in measurements

    def test_same_identity_in_every_process(self):
        script = (
            "import functools\n"
            "import sys\n"
            "from repro.tee.enclave import EnclaveCode\n"
            "heap_shift = [object() for _ in range(int(sys.argv[1]))]\n"
            "for entry in (len, functools.partial(len, 'abc'),\n"
            "              eval('lambda inputs: inputs in {1, \"a\", None}')):\n"
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
