"""The recursive type walk canonical JSON once ran on, kept as an oracle.

``repro.utils.serialization`` hands the whole tree to the C ``json``
module in both directions.  This is the reference it replaced: ``encode``
rebuilds the tree out of JSON-safe types and wrapper dicts before
``json.dumps`` walks it again, ``decode`` rebuilds every list and dict of
a parsed document to restore the wrappers.  The differential test in
``tests/test_serialization_oracle.py`` holds the production path to
these bytes and these round trips.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

CANONICAL_JSON_SETTINGS = {
    "sort_keys": True, "separators": (",", ":"), "ensure_ascii": True,
}
_BYTES_KEY = "__bytes__"
_NDARRAY_KEY = "__ndarray__"
_RESERVED_KEYS = (_BYTES_KEY, _NDARRAY_KEY)
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
    """The walk's canonical JSON of ``value``."""
    return json.dumps(_encode(value), **CANONICAL_JSON_SETTINGS)


def from_canonical_json(text: str) -> Any:
    """The walk's decoding of a canonical document."""
    return _decode(json.loads(text))
