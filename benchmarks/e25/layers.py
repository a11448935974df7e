"""Layer tracing for the traced pass, kept out of ``src/``.

Each probe wraps one public function of a layer.  A call opens an in-memory
span whose parent is the innermost open span; a layer's *self time* is the
span's duration minus the time its child spans cover, so the self times of
one op (its root span included) add up to the op's wall time.  Probes are
installed only around traced ops and the original objects are put back —
and checked — afterwards.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

#: Layer of an op's root span: whatever no probe below covers.
ROOT_LAYER = "core.self"


def _result_len(args: tuple, result: Any) -> int:
    return len(result)


def _plaintext_len(args: tuple, result: Any) -> int:
    return len(args[1])  # encrypt(key, plaintext, rng)


def _ciphertext_len(args: tuple, result: Any) -> int:
    return len(args[1].ciphertext)  # decrypt(key, envelope)


@dataclass(frozen=True)
class Probe:
    layer: str
    #: ``module:function`` or ``module:Class.attribute``.
    target: str
    #: Whether calls count towards the layer's ``*_calls`` / ``*_per_op``.
    counted: bool = True
    #: Bytes handled by one call, from ``(args, result)``.
    size_of: Optional[Callable[[tuple, Any], int]] = None


PROBES: tuple[Probe, ...] = (
    Probe("chain.submit", "repro.chain.blockchain:Blockchain.submit"),
    Probe("chain.mine_block", "repro.chain.blockchain:Blockchain.mine_block"),
    Probe("chain.vm_apply", "repro.chain.vm:VM.apply_transaction"),
    Probe("chain.state_snapshot", "repro.chain.state:WorldState.snapshot"),
    Probe("chain.state_snapshot", "repro.chain.state:WorldState.restore",
          counted=False),
    Probe("chain.state_root", "repro.chain.state:WorldState.state_root"),
    Probe("chain.view", "repro.chain.blockchain:Blockchain.view"),
    Probe("chain.audit", "repro.chain.audit:ChainAuditor.pre_block",
          counted=False),
    Probe("chain.audit", "repro.chain.audit:ChainAuditor.post_block"),
    Probe("chain.verify_chain",
          "repro.chain.blockchain:Blockchain.verify_chain"),
    Probe("crypto.ecdsa_sign", "repro.crypto.ecdsa:PrivateKey.sign"),
    Probe("crypto.ecdsa_verify", "repro.crypto.ecdsa:PublicKey.verify"),
    Probe("crypto.ecdsa_verify", "repro.crypto.ecdsa:batch_verify"),
    Probe("crypto.ecdh", "repro.crypto.ecdsa:shared_secret"),
    Probe("crypto.symmetric", "repro.crypto.symmetric:encrypt",
          size_of=_plaintext_len),
    Probe("crypto.symmetric", "repro.crypto.symmetric:decrypt",
          size_of=_ciphertext_len),
    Probe("crypto.hash", "repro.crypto.hashing:hash_object"),
    Probe("crypto.merkle", "repro.crypto.merkle:MerkleTree.__init__"),
    Probe("crypto.merkle", "repro.crypto.merkle:MerkleTree.proof"),
    Probe("crypto.merkle", "repro.crypto.merkle:MerkleTree.verify_proof"),
    Probe("crypto.merkle", "repro.crypto.merkle:merkle_root"),
    Probe("serialization.encode", "repro.utils.serialization:canonical_json",
          size_of=_result_len),
    Probe("serialization.encode",
          "repro.utils.serialization:canonical_json_bytes",
          size_of=_result_len),
    Probe("serialization.decode",
          "repro.utils.serialization:from_canonical_json"),
    Probe("tee.measurement", "repro.tee.enclave:EnclaveCode.measurement"),
    Probe("tee.launch", "repro.tee.enclave:TEEPlatform.launch"),
    Probe("tee.quote",
          "repro.tee.attestation:AttestationService.produce_quote"),
    Probe("tee.verify_quote",
          "repro.tee.attestation:AttestationService.verify"),
    Probe("tee.provision", "repro.tee.enclave:Enclave.provision_input"),
    Probe("tee.run", "repro.tee.enclave:Enclave.run"),
    Probe("governance.certificate",
          "repro.governance.certificates:issue_certificate"),
    Probe("governance.audit", "repro.governance.audit:audit_workload"),
    Probe("governance.audit", "repro.governance.audit:trail_covers_chain"),
    Probe("storage.match",
          "repro.storage.catalog:DataCatalog.match_for_owner"),
    Probe("telemetry.publish", "repro.core.events:EventBus.emit"),
)

#: Layer of the per-marketplace ``tracer.on_finish`` hook (an instance
#: attribute, so it is probed per workload, not from the table above).
PUBLISH_LAYER = "telemetry.publish"

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(
    [ROOT_LAYER, PUBLISH_LAYER] + [probe.layer for probe in PROBES]
))
_LAYER_ID = {layer: index for index, layer in enumerate(LAYERS)}


class SpanRecorder:
    """In-memory spans: ``[layer id, parent row, start, end, counted, size]``."""

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn: Callable, layer: str, counted: bool = True,
             size_of: Optional[Callable[[tuple, Any], int]] = None,
             ) -> Callable:
        rows, stack = self.rows, self._stack
        layer_id = _LAYER_ID[layer]

        def probe(*args: Any, **kwargs: Any) -> Any:
            row = [layer_id, stack[-1] if stack else -1, 0.0, 0.0,
                   counted, 0]
            stack.append(len(rows))
            rows.append(row)
            row[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    row[5] = size_of(args, result)
                return result
            finally:
                row[3] = perf_counter()
                stack.pop()

        probe.__wrapped__ = fn
        return probe

    @contextmanager
    def op(self) -> Iterator[None]:
        """Root span of one traced op."""
        row = [_LAYER_ID[ROOT_LAYER], -1, 0.0, 0.0, True, 0]
        self._stack.append(len(self.rows))
        self.rows.append(row)
        row[2] = perf_counter()
        try:
            yield
        finally:
            row[3] = perf_counter()
            self._stack.pop()


def self_times(rows: list[list]) -> list[float]:
    """Per-row self time: duration minus what direct children cover.

    Spans come from one thread and nest strictly, so children never
    overlap and their summed durations are the covered interval.
    """
    covered = [0.0] * len(rows)
    for _, parent, start, end, _, _ in rows:
        if parent >= 0:
            covered[parent] += end - start
    return [row[3] - row[2] - covered[index]
            for index, row in enumerate(rows)]


def per_op_layers(rows: list[list]) -> list[dict[str, dict[str, float]]]:
    """Fold rows into one ``{layer: {ms, calls, size}}`` dict per root span.

    ``calls`` counts a probe only when its parent is another layer, so the
    recursion inside one layer (``canonical_json_bytes`` ->
    ``canonical_json``) is one call, and only such top-level calls add
    ``size``.
    """
    own = self_times(rows)
    ops: list[dict[str, dict[str, float]]] = []
    for index, (layer_id, parent, _, _, counted, size) in enumerate(rows):
        if parent < 0:
            ops.append({layer: {"ms": 0.0, "calls": 0, "size": 0}
                        for layer in LAYERS})
        cell = ops[-1][LAYERS[layer_id]]
        cell["ms"] += own[index] * 1e3
        if parent < 0 or rows[parent][0] != layer_id:
            cell["calls"] += counted
            cell["size"] += size
    return ops


def write_spans(rows: list[list], path: Path) -> None:
    own = self_times(rows)
    origin = rows[0][2] if rows else 0.0
    op = -1
    with open(path, "w", encoding="utf-8") as handle:
        for index, (layer_id, parent, start, end, _, size) in enumerate(rows):
            if parent < 0:
                op += 1
            handle.write(json.dumps({
                "id": index, "parent": parent, "op": op,
                "layer": LAYERS[layer_id],
                "start_ms": round((start - origin) * 1e3, 4),
                "dur_ms": round((end - start) * 1e3, 4),
                "self_ms": round(own[index] * 1e3, 4),
                "size": size,
            }))
            handle.write("\n")


# ---------------------------------------------------------------------------
# Installing and removing probes
# ---------------------------------------------------------------------------


def _rewrap(raw: Any, wrap: Callable[[Callable], Callable]) -> Any:
    """Wrap the function inside a descriptor, keeping the descriptor kind."""
    if isinstance(raw, staticmethod):
        return staticmethod(wrap(raw.__func__))
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    if isinstance(raw, property):
        return property(wrap(raw.fget), raw.fset, raw.fdel, raw.__doc__)
    return wrap(raw)


class ProbeSet:
    """Every ``(owner, attribute)`` binding of every probed function."""

    def __init__(self, recorder: SpanRecorder,
                 hooks: tuple[tuple[Any, str], ...] = ()) -> None:
        #: ``(owner, attribute, original, replacement)``
        self.bindings: list[tuple[Any, str, Any, Any]] = []
        for probe in PROBES:
            module_name, _, path = probe.target.partition(":")
            module = importlib.import_module(module_name)

            def wrap(fn: Callable, probe: Probe = probe) -> Callable:
                return recorder.wrap(fn, probe.layer, probe.counted,
                                     probe.size_of)

            if "." in path:
                class_name, attribute = path.split(".")
                owner = getattr(module, class_name)
                raw = vars(owner)[attribute]
                self.bindings.append(
                    (owner, attribute, raw, _rewrap(raw, wrap)))
                continue
            # A module-level function is also bound by name in every module
            # that did ``from ... import`` it; rebind each of those.
            raw = vars(module)[path]
            replacement = wrap(raw)
            for name, other in list(sys.modules.items()):
                if other is None or not (name == "repro"
                                         or name.startswith("repro.")):
                    continue
                for attribute, value in list(vars(other).items()):
                    if value is raw:
                        self.bindings.append(
                            (other, attribute, raw, replacement))
        for owner, attribute in hooks:
            raw = vars(owner)[attribute]
            self.bindings.append(
                (owner, attribute, raw, recorder.wrap(raw, PUBLISH_LAYER)))
        self.installed = False

    def install(self) -> None:
        for owner, attribute, _, replacement in self.bindings:
            setattr(owner, attribute, replacement)
        self.installed = True

    def uninstall(self) -> None:
        """Put every original back and check that it is back."""
        for owner, attribute, raw, _ in self.bindings:
            setattr(owner, attribute, raw)
        self.installed = False
        for owner, attribute, raw, _ in self.bindings:
            if vars(owner)[attribute] is not raw:
                raise RuntimeError(
                    f"probe on {owner!r}.{attribute} was not restored")
