"""Canonical serialization used everywhere a hash or signature is computed.

Hashes over structured data (transactions, blocks, workload specs, sensor
readings, session checkpoints, batch job records) must be stable across
Python versions and dict insertion orders.  ``canonical_json`` provides that
stability: keys are sorted, no insignificant whitespace is emitted, and only
a small set of JSON-safe types is accepted.  Binary payloads are encoded as
``{"__bytes__": "<hex>"}`` wrappers so they can round-trip without loss;
numpy arrays as ``{"__ndarray__": {...}}`` wrappers carrying dtype + shape.

Determinism rules (golden-tested in ``tests/test_serialization_golden.py``):

* dict keys are sorted lexicographically and must be strings;
* sets and frozensets are emitted as lists sorted by each element's own
  canonical encoding (so ``{"b", "a"}`` and ``{"a", "b"}`` are identical
  on the wire) — they decode as lists, a deliberate loss: canonical
  documents have no set type, callers re-wrap where set semantics matter;
* floats use Python's shortest round-trip ``repr`` (what ``json.dumps``
  emits), so ``0.1`` is exactly ``0.1`` and ``-0.0`` keeps its sign;
  NaN/inf are rejected rather than emitted as non-standard JSON;
* numpy scalars are coerced to their Python equivalents, numpy arrays to
  the ndarray wrapper (C-order data, dtype string, explicit shape).
"""

from __future__ import annotations

import json
import os
from typing import IO, Any

import numpy as np

_BYTES_KEY = "__bytes__"
_NDARRAY_KEY = "__ndarray__"
_RESERVED_KEYS = (_BYTES_KEY, _NDARRAY_KEY)

#: ``json`` settings of every canonical document: sorted keys, no
#: insignificant whitespace, ASCII only.
CANONICAL_JSON_SETTINGS = {
    "sort_keys": True, "separators": (",", ":"), "ensure_ascii": True,
}

#: ndarray dtypes allowed on the wire (everything else is a modeling error).
_NDARRAY_DTYPES = ("float64", "float32", "int64", "int32", "bool")


def _encode_ndarray(value: np.ndarray) -> dict:
    dtype = str(value.dtype)
    if dtype not in _NDARRAY_DTYPES:
        raise TypeError(
            f"ndarray dtype {dtype!r} is not canonically serializable "
            f"(allowed: {', '.join(_NDARRAY_DTYPES)})"
        )
    flat = value.ravel(order="C").tolist()
    return {_NDARRAY_KEY: {
        "dtype": dtype,
        "shape": list(value.shape),
        "data": [_encode(item) for item in flat],
    }}


def _encode(value: Any) -> Any:
    """Recursively convert ``value`` into a JSON-serializable structure."""
    if isinstance(value, bytes):
        return {_BYTES_KEY: value.hex()}
    if isinstance(value, np.ndarray):
        return _encode_ndarray(value)
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"canonical JSON requires string keys, got {type(key).__name__}"
                )
            if key in _RESERVED_KEYS:
                raise ValueError(
                    f"the key {key!r} is reserved for typed payload wrappers"
                )
            encoded[key] = _encode(item)
        return encoded
    if isinstance(value, (set, frozenset)):
        items = [_encode(item) for item in value]
        return sorted(items, key=lambda item: json.dumps(
            item, **CANONICAL_JSON_SETTINGS
        ))
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        # Floats are allowed but NaN/inf would break JSON round-tripping.
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("NaN and infinite floats are not canonically serializable")
        return value
    raise TypeError(f"type {type(value).__name__} is not canonically serializable")


def _decode(value: Any) -> Any:
    """Inverse of :func:`_encode`: restore bytes and ndarray wrappers."""
    if isinstance(value, dict):
        if len(value) == 1 and _BYTES_KEY in value:
            return bytes.fromhex(value[_BYTES_KEY])
        if len(value) == 1 and _NDARRAY_KEY in value:
            wrapped = value[_NDARRAY_KEY]
            array = np.asarray(wrapped["data"], dtype=wrapped["dtype"])
            return array.reshape(wrapped["shape"])
        return {key: _decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode(item) for item in value]
    return value


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to a canonical JSON string.

    The output is deterministic: keys sorted, separators fixed, bytes encoded
    as hex wrappers.  Two structurally-equal values always serialize to the
    same string, which makes the result safe to hash or sign.
    """
    return json.dumps(_encode(value), **CANONICAL_JSON_SETTINGS)


def canonical_json_bytes(value: Any) -> bytes:
    """Serialize ``value`` canonically and return UTF-8 bytes (hash input)."""
    return canonical_json(value).encode("utf-8")


def from_canonical_json(text: str | bytes) -> Any:
    """Parse a canonical JSON document, restoring binary payloads."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return _decode(json.loads(text))


def append_jsonl(handle: IO[str], record: dict) -> None:
    """Write ``record`` as one sorted-key JSON line and flush it: once this
    returns, a kill of the process loses nothing already appended."""
    handle.write(json.dumps(record, sort_keys=True) + "\n")
    handle.flush()


def read_jsonl(path: str, corrupt: type[Exception]) -> list[dict]:
    """Records of an append-only JSONL file; ``[]`` when it does not exist.

    A half-written *final* line — the signature of a writer killed
    mid-record — is dropped.  An undecodable line anywhere else, or a line
    that is not a JSON object, means the file was edited, not interrupted:
    it raises ``corrupt`` naming the line.
    """
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    records = (jsonl_record(line, number, path, corrupt,
                            final=number == len(lines))
               for number, line in enumerate(lines, start=1))
    return [record for record in records if record is not None]


def jsonl_record(line: str, number: int, path: str,
                 corrupt: type[Exception], final: bool) -> dict | None:
    """Line ``number`` of the JSONL file at ``path`` as a record.

    ``None`` for a blank line, and for an undecodable line when it is the
    ``final`` one a killed writer may have left half-written; any other
    line that is not a JSON object raises ``corrupt`` naming the line.
    """
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        if final:
            return None
        raise corrupt(f"corrupt JSONL line {number} in {path}") from None
    if not isinstance(record, dict):
        raise corrupt(f"JSONL line {number} in {path} is not an object")
    return record
