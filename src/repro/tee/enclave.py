"""Simulated trusted execution environments (paper Section III-B).

The paper selects TEEs (Intel SGX) as the oblivious-computation mechanism for
PDS2 executors.  Real enclave hardware is not available here, so this module
implements a *behavioral* simulation that preserves every property the
marketplace protocol observes:

* **Measurement** — an enclave's identity is the hash of the exact code it
  runs (``EnclaveCode.measurement`` hashes name, version and the registered
  function's code object — bytecode, constants, names — once per code unit:
  like MRENCLAVE it is fixed when the code is built, and every later quote,
  launch and event reads that value).  Change one instruction or constant
  of the workload and the measurement changes; change a comment and it
  does not.
* **Sealing** — data sealed by an enclave can only be unsealed by an enclave
  with the same measurement on the same platform (keys are derived from
  ``platform_secret || measurement``).
* **Isolation** — inputs provisioned into an enclave are encrypted under an
  ECDH key shared with the enclave's ephemeral key; the host object never
  holds plaintext, and the host-facing API exposes none.
* **Attestation** — quotes bind (measurement, report data, platform) under
  the platform's provisioned key; see :mod:`repro.tee.attestation`.

What the simulation intentionally does *not* model are micro-architectural
side channels; their mitigation cost is represented by the oblivious
primitives (:mod:`repro.tee.oblivious`) and the calibrated cost model
(:mod:`repro.tee.cost_model`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from types import CodeType
from typing import Any, Callable

import numpy as np

from repro.crypto.ecdsa import PrivateKey, PublicKey, shared_secret
from repro.crypto.hashing import keccak256, sha256
from repro.crypto.symmetric import Envelope, decrypt, encrypt
from repro.errors import DecryptionError, EnclaveViolationError, SealingError
from repro.telemetry import metrics as _tm
from repro.telemetry.tracing import tracer as _tracer

_LAUNCHES = _tm.counter(
    "pds2_tee_enclave_launches_total", "Enclaves launched across all platforms"
)
_PROVISIONS = _tm.counter(
    "pds2_tee_provision_total", "Inputs provisioned into enclaves, by kind",
    labelnames=("kind",),
)
_RUN_SECONDS = _tm.histogram(
    "pds2_tee_enclave_run_seconds", "Wall time of enclave payload execution",
    buckets=_tm.LATENCY_BUCKETS_S,
)


def _describe(value: Any) -> str:
    """What the measurement covers of an entry point, or of a part of one.

    A function is its code object and its default arguments; a code object
    is what the interpreter executes — bytecode, exception table, constants
    (nested code objects walked the same way), the names it loads and
    binds, argument counts and flags — and not where it came from: no file
    name, line number or source text, so a comment or a blank line changes
    nothing and a function whose ``.py`` is gone measures the same.
    ``functools.partial`` is the function it wraps plus the arguments it
    binds.  A callable with no code object (a builtin, an instance with
    ``__call__``) falls back to its qualified name, which, unlike ``repr``,
    holds no memory address.  Bytecode is the interpreter's, so a
    measurement is per Python minor version.
    """
    if isinstance(value, CodeType):
        return "code" + _describe((
            value.co_code, getattr(value, "co_exceptiontable", b""),
            value.co_consts, value.co_names, value.co_varnames,
            value.co_freevars, value.co_cellvars, value.co_argcount,
            value.co_posonlyargcount, value.co_kwonlyargcount,
            value.co_flags))
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(_describe, value)) + ")"
    if isinstance(value, (frozenset, set)):  # iteration order is per process
        return "{" + ",".join(sorted(map(_describe, value))) + "}"
    if isinstance(value, dict):
        return "{" + ",".join(sorted(
            _describe(key) + "=" + _describe(item)
            for key, item in value.items())) + "}"
    if isinstance(value, partial):
        return "partial" + _describe(
            (value.func, value.args, value.keywords))
    if isinstance(getattr(value, "__code__", None), CodeType):
        return "function" + _describe((
            value.__code__, value.__defaults__, value.__kwdefaults__))
    if value is None or value is ... or isinstance(
            value, (bool, int, float, complex, str, bytes)):
        return f"{type(value).__name__}:{value!r}"
    module = getattr(value, "__module__", None)
    qualname = getattr(value, "__qualname__", None)
    if qualname is None:
        qualname = type(value).__qualname__
    return f"{module}.{qualname}"


@lru_cache(maxsize=256)
def _measured_code(entry_point: Callable[..., Any]) -> bytes:
    """The digest of :func:`_describe` of an entry point, walked once per
    function: every workload is a code unit of its own
    (``ExecutorActor.code_for``) over the one shared entry point, so
    :func:`_measure` misses once per session."""
    return keccak256(_describe(entry_point).encode("utf-8"))


@lru_cache(maxsize=256)
def _measure(name: str, version: str,
             entry_point: Callable[..., Any]) -> bytes:
    """The measurement of one code unit, computed on first use.

    Keyed by value because callers build an equal ``EnclaveCode`` per use
    (``ExecutorActor.code_for``); bounded, since the key holds the function.
    """
    payload = "\x00".join([name, version, _measured_code(entry_point).hex()])
    return keccak256(payload.encode("utf-8"))


@dataclass(frozen=True)
class EnclaveCode:
    """A unit of code deployable into enclaves.

    The measurement covers the name, version and the *code object* of the
    entry point, mirroring SGX's MRENCLAVE covering the loaded pages.
    """

    name: str
    version: str
    entry_point: Callable[..., Any]

    @property
    def measurement(self) -> bytes:
        """32-byte identity hash of this code unit (computed once)."""
        return _measure(self.name, self.version, self.entry_point)


class TEEPlatform:
    """One machine with TEE hardware (an executor's host).

    Holds the platform secret (fused into the CPU on real hardware) and the
    provisioned attestation key.  The platform can launch many enclaves.
    """

    def __init__(self, platform_id: str, rng: np.random.Generator):
        self.platform_id = platform_id
        self._platform_secret = rng.bytes(32)
        self.attestation_key = PrivateKey.generate(rng)
        self._rng = rng
        #: Optional observer called with every launched enclave (the
        #: marketplace event bus hooks in here; None means unobserved).
        self.on_launch: Callable[["Enclave"], None] | None = None

    def launch(self, code: EnclaveCode) -> "Enclave":
        """Instantiate an enclave running ``code`` on this platform."""
        with _tracer().span("tee.enclave.launch", code=code.name,
                            platform=self.platform_id):
            enclave = Enclave(platform=self, code=code, rng=self._rng)
        _LAUNCHES.inc()
        if self.on_launch is not None:
            self.on_launch(enclave)
        return enclave

    def sealing_key(self, measurement: bytes) -> bytes:
        """Derive the sealing key for a given enclave measurement.

        Only this platform can derive it, and it is measurement-specific, so
        sealed blobs move neither across machines nor across code versions.
        """
        return sha256(self._platform_secret + measurement)


class Enclave:
    """A running enclave instance.

    The lifecycle mirrors the marketplace protocol:

    1. ``launch`` (via :meth:`TEEPlatform.launch`) creates the instance with
       a fresh ephemeral key pair;
    2. the executor requests a quote binding the ephemeral public key
       (:meth:`repro.tee.attestation.AttestationService.produce_quote`);
    3. providers verify the quote, then provision data with
       :meth:`provision_input`, encrypting under the ECDH shared key;
    4. :meth:`run` executes the measured code over the decrypted inputs,
       entirely inside enclave-private state;
    5. results come out via :meth:`extract_output`, optionally encrypted to
       the consumer's key so even the executor never sees them.
    """

    def __init__(self, platform: TEEPlatform, code: EnclaveCode,
                 rng: np.random.Generator):
        self.platform = platform
        self.code = code
        self._rng = rng
        # Ephemeral enclave identity, generated inside the enclave.
        self._ephemeral_key = PrivateKey.generate(rng)
        # Private memory: host code must never touch attributes starting
        # with _private.  (Python cannot enforce this; tests do.)
        self._private_inputs: dict[str, Any] = {}
        self._private_output: Any = None
        self._ran = False
        self._terminated = False
        self.call_transitions = 0  # ECALL/OCALL counter for the cost model
        #: The platform-signed quote for this instance, kept by
        #: ``AttestationService.produce_quote`` once signed.
        self.quote: Any = None

    @property
    def measurement(self) -> bytes:
        """The identity hash of the loaded code."""
        return self.code.measurement

    @property
    def ephemeral_public_key(self) -> PublicKey:
        """Public half of the enclave's session key (bound into quotes)."""
        return self._ephemeral_key.public_key

    def terminate(self) -> None:
        """Tear the enclave down (host crash / power loss).

        Enclave memory is gone: every subsequent provision, run or extract
        raises.  Like real SGX, nothing survives except what was sealed —
        the fault-injection harness uses this to model crashed executors.
        """
        self._terminated = True
        self._private_inputs.clear()
        self._private_output = None
        self.quote = None

    @property
    def terminated(self) -> bool:
        return self._terminated

    def _require_alive(self) -> None:
        if self._terminated:
            raise EnclaveViolationError("enclave was terminated")

    # -- input provisioning ------------------------------------------------------

    @staticmethod
    def encrypt_for_enclave(enclave_public_key: PublicKey,
                            sender_key: PrivateKey, plaintext: bytes,
                            rng: np.random.Generator) -> Envelope:
        """Provider-side helper: encrypt ``plaintext`` to an attested enclave.

        Uses static ECDH between the provider key and the enclave's
        ephemeral key, then authenticated symmetric encryption.
        """
        key = shared_secret(sender_key, enclave_public_key)
        return encrypt(key, plaintext, rng)

    def provision_input(self, label: str, envelope: Envelope,
                        sender_public_key: PublicKey) -> None:
        """Accept an encrypted input; decrypt it *inside* the enclave."""
        self._require_alive()
        self.call_transitions += 1
        _PROVISIONS.labels(kind="encrypted").inc()
        key = shared_secret(self._ephemeral_key, sender_public_key)
        try:
            plaintext = decrypt(key, envelope)
        except DecryptionError as exc:
            raise EnclaveViolationError(
                f"input {label!r} failed authenticated decryption"
            ) from exc
        self._private_inputs[label] = plaintext

    def provision_plain(self, label: str, value: Any) -> None:
        """Accept a non-confidential input (e.g. public hyperparameters)."""
        self._require_alive()
        self.call_transitions += 1
        _PROVISIONS.labels(kind="plain").inc()
        self._private_inputs[label] = value

    # -- execution ---------------------------------------------------------------

    def run(self, **kwargs: Any) -> None:
        """Execute the measured entry point over the provisioned inputs.

        The entry point receives the decrypted inputs dict plus any extra
        keyword arguments; its return value stays in enclave-private memory
        until extracted.
        """
        self._require_alive()
        if self._ran:
            raise EnclaveViolationError("enclave already executed its payload")
        self.call_transitions += 1
        with _tracer().span("tee.enclave.run", code=self.code.name,
                            platform=self.platform.platform_id) as span:
            self._private_output = self.code.entry_point(
                dict(self._private_inputs), **kwargs
            )
        _RUN_SECONDS.observe(span.wall_duration)
        self._ran = True

    # -- output extraction ----------------------------------------------------------

    def extract_output(self, recipient_public_key: PublicKey | None = None,
                       ) -> Any | Envelope:
        """Release the result.

        With ``recipient_public_key`` the output is serialized and encrypted
        under an ECDH key with the recipient, so the *executor host* never
        sees it — the workload-confidentiality requirement of Section II-B.
        Without it, the plaintext result is returned (for public outputs).
        """
        self._require_alive()
        if not self._ran:
            raise EnclaveViolationError("enclave has not executed yet")
        self.call_transitions += 1
        if recipient_public_key is None:
            return self._private_output
        from repro.utils.serialization import canonical_json_bytes

        payload = canonical_json_bytes(self._private_output)
        key = shared_secret(self._ephemeral_key, recipient_public_key)
        return encrypt(key, payload, self._rng)

    # -- sealed storage ----------------------------------------------------------

    def seal(self, data: bytes) -> Envelope:
        """Encrypt ``data`` so only same-code-same-platform enclaves read it."""
        key = self.platform.sealing_key(self.measurement)
        return encrypt(key, data, self._rng)

    def unseal(self, envelope: Envelope) -> bytes:
        """Decrypt a blob sealed by an identical enclave on this platform."""
        key = self.platform.sealing_key(self.measurement)
        try:
            return decrypt(key, envelope)
        except DecryptionError as exc:
            raise SealingError(
                "sealed blob belongs to a different enclave or platform"
            ) from exc
