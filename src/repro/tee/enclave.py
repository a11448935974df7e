"""Simulated trusted execution environments (paper Section III-B).

The paper selects TEEs (Intel SGX) as the oblivious-computation mechanism for
PDS2 executors.  Real enclave hardware is not available here, so this module
implements a *behavioral* simulation that preserves every property the
marketplace protocol observes:

* **Measurement** — an enclave's identity is the hash of the exact code it
  runs (``EnclaveCode.measurement`` hashes name, version and the digest of
  the registered function's code object — bytecode, constants, names —
  which is walked once per function: like MRENCLAVE it is fixed when the
  code is built).  Change one instruction or constant of the workload and
  the measurement changes; change a comment and it does not.
* **Isolation** — inputs provisioned into an enclave are sealed to the
  enclave's ephemeral X25519 key with HPKE (:mod:`repro.crypto.hpke`); the
  host object never holds plaintext, and the host-facing API exposes none.
* **Attestation** — quotes bind (measurement, report data, platform) under
  the platform's provisioned P-256 key, as DCAP quotes do; see
  :mod:`repro.tee.attestation`.

What the simulation intentionally does *not* model are micro-architectural
side channels; their mitigation cost is represented by the calibrated cost
model (:mod:`repro.tee.cost_model`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from types import CodeType
from typing import Any, Callable

import numpy as np
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from repro.crypto import hpke
from repro.crypto.hashing import keccak256
from repro.errors import DecryptionError, EnclaveViolationError
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
    function: a program constant, like ``G``'s comb.  Every workload is a
    code unit of its own (``ExecutorActor.code_for``) over the one shared
    entry point, so its measurement is one hash over this digest."""
    return keccak256(_describe(entry_point).encode("utf-8"))


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
        """32-byte identity hash of this code unit: name, version and the
        entry point's code digest, hashed per call (a few µs)."""
        payload = "\x00".join([self.name, self.version,
                               _measured_code(self.entry_point).hex()])
        return keccak256(payload.encode("utf-8"))


#: The order of P-256's base point: an attestation scalar lies in [1, n).
_P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


class TEEPlatform:
    """One machine with TEE hardware (an executor's host).

    Holds the platform secret (fused into the CPU on real hardware) and the
    provisioned attestation key, an ECDSA P-256 key as in DCAP.  The
    platform can launch many enclaves.
    """

    def __init__(self, platform_id: str, rng: np.random.Generator):
        self.platform_id = platform_id
        # The platform secret (fused into the CPU): nothing here derives a
        # key from it, but the attestation key is the stream's next draw.
        rng.bytes(32)
        scalar = int.from_bytes(rng.bytes(32), "big") % (_P256_ORDER - 1) + 1
        self.attestation_key = ec.derive_private_key(scalar, ec.SECP256R1())
        self._rng = rng

    def launch(self, code: EnclaveCode) -> "Enclave":
        """Instantiate an enclave running ``code`` on this platform."""
        with _tracer().span("tee.enclave.launch", code=code.name,
                            platform=self.platform_id):
            enclave = Enclave(platform=self, code=code, rng=self._rng)
        _LAUNCHES.inc()
        _tracer().scope.emit("tee.enclave_launched", actor=self.platform_id,
                             data={"code": code.name,
                                   "measurement": enclave.measurement.hex()})
        return enclave


class Enclave:
    """A running enclave instance.

    The lifecycle mirrors the marketplace protocol:

    1. ``launch`` (via :meth:`TEEPlatform.launch`) creates the instance with
       a fresh ephemeral key pair;
    2. the executor requests a quote binding the ephemeral public key
       (:meth:`repro.tee.attestation.AttestationService.produce_quote`);
    3. providers verify the quote, then provision data with
       :meth:`provision_input`, sealed to the attested key with HPKE;
    4. :meth:`run` executes the measured code over the decrypted inputs,
       entirely inside enclave-private state;
    5. the result comes out via :meth:`extract_output`.
    """

    def __init__(self, platform: TEEPlatform, code: EnclaveCode,
                 rng: np.random.Generator):
        self.platform = platform
        self.code = code
        # Ephemeral enclave identity, generated inside the enclave.
        self._ephemeral_key = X25519PrivateKey.from_private_bytes(
            rng.bytes(32))
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
    def ephemeral_public_key(self) -> X25519PublicKey:
        """Public half of the enclave's session key (bound into quotes)."""
        return self._ephemeral_key.public_key()

    def terminate(self) -> None:
        """Tear the enclave down (host crash / power loss).

        Enclave memory is gone: every subsequent provision, run or extract
        raises — the fault-injection harness uses this to model crashed
        executors.
        """
        self._terminated = True
        self._private_inputs.clear()
        self._private_output = None
        self.quote = None

    def _require_alive(self) -> None:
        if self._terminated:
            raise EnclaveViolationError("enclave was terminated")

    # -- input provisioning ------------------------------------------------------

    def provision_input(self, label: str, blob: bytes,
                        sender_public_key: X25519PublicKey,
                        info: bytes) -> None:
        """Accept a blob :func:`repro.crypto.hpke.seal` sealed to this
        enclave by ``sender_public_key``'s holder under ``info``; open it
        *inside* the enclave."""
        self._require_alive()
        self.call_transitions += 1
        _PROVISIONS.labels(kind="encrypted").inc()
        try:
            plaintext = hpke.open(self._ephemeral_key, sender_public_key,
                                  blob, info)
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

    def extract_output(self) -> Any:
        """Release the (public) result of :meth:`run`."""
        self._require_alive()
        if not self._ran:
            raise EnclaveViolationError("enclave has not executed yet")
        self.call_transitions += 1
        return self._private_output
