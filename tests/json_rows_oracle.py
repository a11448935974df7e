"""The canonical-JSON row format that packed float64 rows replaced.

A row was the canonical JSON of ``{"x": [floats], "y": float}`` and the
partition document the JSON list of the rows; each entry point decoded it
with ``from_canonical_json`` and a list comprehension per column.  Kept
here, outside the package, as the oracle of the differential in
``tests/core/test_partition_format.py``: either format must give the
entry points equal outputs.
"""

from __future__ import annotations

import numpy as np

from repro.utils.serialization import canonical_json_bytes, from_canonical_json


def serialize_rows(features: np.ndarray, targets: np.ndarray) -> list[bytes]:
    """One canonical JSON document per row."""
    count = len(features)
    if count == 0:
        return []
    xs = np.asarray(features, dtype=float).reshape(count, -1).tolist()
    ys = np.asarray(targets, dtype=float).reshape(-1).tolist()
    return [canonical_json_bytes({"x": x, "y": y})
            for x, y in zip(xs, ys, strict=True)]


def join(rows: list[bytes]) -> bytes:
    """The canonical JSON list whose items are the encoded ``rows``."""
    return b"[" + b",".join(rows) + b"]"


def decode(blob: bytes) -> tuple[np.ndarray, np.ndarray]:
    """What both entry points did with a provisioned partition."""
    rows = from_canonical_json(blob)
    features = np.asarray([row["x"] for row in rows], dtype=float)
    targets = np.asarray([row["y"] for row in rows])
    return features, targets
