"""Canonical serialization used everywhere a hash or signature is computed.

Hashes over structured data (transactions, blocks, workload specs,
checkpoints, batch job records) must not depend on Python version or dict
insertion order.  ``canonical_json`` is one C ``json`` encoder pass with
sorted keys, no insignificant whitespace and a small set of accepted types;
``from_canonical_json`` is one C ``json.loads``.  Bytes travel as
``{"__bytes__": "<hex>"}``, numpy arrays as ``{"__ndarray__": {...}}``
(C-order data, dtype string, explicit shape).

Determinism rules (golden-tested in ``tests/test_serialization_golden.py``;
``tests/serialization_oracle.py`` is the recursive walk they came from):

* dict keys are sorted and must be strings;
* sets and frozensets are lists sorted by each element's canonical
  encoding, and decode as lists: canonical documents have no set type;
* floats use Python's shortest round-trip ``repr``, so ``0.1`` is exactly
  ``0.1`` and ``-0.0`` keeps its sign; NaN/inf are rejected;
* numpy scalars are coerced to their Python equivalents.
"""

from __future__ import annotations

import json
import math
import os
from typing import IO, Any

import numpy as np

_BYTES_KEY = "__bytes__"
_NDARRAY_KEY = "__ndarray__"
_RESERVED_KEYS = (_BYTES_KEY, _NDARRAY_KEY)

#: ndarray dtypes allowed on the wire (everything else is a modeling error).
_NDARRAY_DTYPES = ("float64", "float32", "int64", "int32", "bool")

#: What the C encoder walks itself; everything else reaches ``_default``.
_CONTAINERS = (dict, list, tuple)
#: Exact types ``_check_keys`` skips without an ``isinstance`` test.
_LEAVES = frozenset({str, int, float, bool, type(None), bytes})


def _check_keys(value: Any) -> None:
    """Raise on the dict keys the C encoder would let through: it writes
    ``1``/``True``/``None``/float keys as strings and knows nothing of the
    wrapper keys.  What ``_default`` converts (sets, arrays) holds no dict;
    a cyclic tree ends here in ``RecursionError``."""
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"canonical JSON requires string keys, "
                                f"got {type(key).__name__}")
        if _BYTES_KEY in value or _NDARRAY_KEY in value:
            raise ValueError(f"the keys {_RESERVED_KEYS} are reserved for "
                             f"typed payload wrappers")
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return
    for item in value:
        if type(item) not in _LEAVES and isinstance(item, _CONTAINERS):
            _check_keys(item)


def _default(value: Any) -> Any:
    """What the C encoder writes for a value it has no rule for."""
    if isinstance(value, bytes):
        return {_BYTES_KEY: value.hex()}
    if isinstance(value, np.ndarray):
        dtype = str(value.dtype)
        if dtype not in _NDARRAY_DTYPES:
            raise TypeError(f"ndarray dtype {dtype!r} is not canonically "
                            f"serializable (allowed: {_NDARRAY_DTYPES})")
        return {_NDARRAY_KEY: {"dtype": dtype, "shape": list(value.shape),
                               "data": value.ravel(order="C").tolist()}}
    if isinstance(value, (set, frozenset)):
        # Set elements are hashable, so they hold no dict to key-check.
        return sorted(value, key=_ENCODER.encode)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"type {type(value).__name__} is not canonically serializable")


#: The one encoder of every canonical document: sorted keys, no
#: insignificant whitespace, ASCII only.  ``allow_nan=False`` is the NaN/inf
#: rejection (``np.float64`` is a float; other numpy floats come back from
#: ``_default`` as floats).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            ensure_ascii=True, allow_nan=False,
                            default=_default)


def _unwrap(obj: dict) -> Any:
    """The decoder's ``object_hook``: a one-key wrapper dict back to bytes
    or an array; a malformed wrapper raises ``ValueError`` naming it."""
    if len(obj) != 1:
        return obj
    if _BYTES_KEY in obj:
        if not isinstance(obj[_BYTES_KEY], str):
            raise ValueError(f"{_BYTES_KEY} payload is not a hex string")
        return bytes.fromhex(obj[_BYTES_KEY])
    if _NDARRAY_KEY not in obj:
        return obj
    wrapped = obj[_NDARRAY_KEY]
    if not (isinstance(wrapped, dict)
            and {"dtype", "shape", "data"} <= wrapped.keys()):
        raise ValueError(f"{_NDARRAY_KEY} needs dtype, shape and data")
    dtype, shape, data = wrapped["dtype"], wrapped["shape"], wrapped["data"]
    if dtype not in _NDARRAY_DTYPES:
        raise ValueError(f"{_NDARRAY_KEY} dtype {dtype!r} is not allowed")
    try:
        if all(type(n) is int and n >= 0 for n in shape):
            array = np.asarray(data, dtype=dtype)
            if array.shape == (math.prod(shape),):
                return array.reshape(shape)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{_NDARRAY_KEY} data does not fit shape {shape!r}")


def canonical_json(value: Any) -> str:
    """``value`` as a canonical JSON string: structurally equal values give
    the same string, so it is safe to hash or sign."""
    _check_keys(value)
    return _ENCODER.encode(value)


def canonical_json_bytes(value: Any) -> bytes:
    """Serialize ``value`` canonically and return UTF-8 bytes (hash input)."""
    return canonical_json(value).encode("utf-8")


def from_canonical_json(text: str | bytes) -> Any:
    """Parse a canonical JSON document, restoring binary payloads (the C
    scanner builds the tree; ``_unwrap`` sees each dict once)."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return json.loads(text, object_hook=_unwrap)


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
