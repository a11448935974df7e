"""Golden-bytes tests for canonical serialization.

Checkpoint digests, batch result digests, transaction hashes and spec
hashes all assume ``canonical_json`` emits *exactly* these bytes forever.
A change that re-orders keys, alters float formatting, or re-encodes a
wrapper silently invalidates every persisted digest — so the expected
strings below are frozen literals, not derived values.
"""

from __future__ import annotations

from hashlib import sha256

import numpy as np
import pytest

from repro.utils.serialization import (
    canonical_json,
    canonical_json_bytes,
    from_canonical_json,
)


class TestGoldenScalars:
    def test_primitives(self):
        assert canonical_json(None) == "null"
        assert canonical_json(True) == "true"
        assert canonical_json(False) == "false"
        assert canonical_json(42) == "42"
        assert canonical_json("x") == '"x"'

    def test_float_shortest_round_trip_repr(self):
        assert canonical_json(0.1) == "0.1"
        assert canonical_json(1 / 3) == "0.3333333333333333"
        assert canonical_json(1.0) == "1.0"
        assert canonical_json(-0.0) == "-0.0"
        assert canonical_json(1e300) == "1e+300"

    def test_numpy_scalars_coerce_to_python(self):
        assert canonical_json(np.int64(3)) == "3"
        assert canonical_json(np.int32(-7)) == "-7"
        assert canonical_json(np.float64(0.5)) == "0.5"
        assert canonical_json(np.bool_(True)) == "true"

    def test_non_ascii_is_escaped(self):
        assert canonical_json("é") == '"\\u00e9"'


class TestGoldenContainers:
    def test_sorted_keys_no_whitespace(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_bytes_wrapper(self):
        assert canonical_json(b"\x00\xff") == '{"__bytes__":"00ff"}'
        assert canonical_json(b"") == '{"__bytes__":""}'

    def test_set_sorted_by_canonical_encoding(self):
        assert canonical_json({"s": {"b", "a", "c"}}) == '{"s":["a","b","c"]}'
        # Elements sort by their *encoded* form — "10" < "2" as strings.
        # Deliberate: ordering must not depend on element types supporting
        # comparison with each other.
        assert canonical_json({10, 2}) == "[10,2]"
        assert canonical_json(frozenset(["a"])) == '["a"]'

    def test_only_single_key_dicts_decode_as_wrappers(self):
        assert from_canonical_json('{"__bytes__":"00ff"}') == b"\x00\xff"
        document = '{"__bytes__":"00ff","other":1}'
        assert from_canonical_json(document) == {"__bytes__": "00ff",
                                                 "other": 1}
        document = '{"__ndarray__":{},"other":1}'
        assert from_canonical_json(document) == {"__ndarray__": {},
                                                 "other": 1}

    def test_sets_decode_as_lists(self):
        restored = from_canonical_json(canonical_json({"s": {"a", "b"}}))
        assert restored == {"s": ["a", "b"]}

    def test_ndarray_wrapper_float64(self):
        array = np.array([[1.0, 0.5], [2.0, -0.0]])
        assert canonical_json(array) == (
            '{"__ndarray__":{"data":[1.0,0.5,2.0,-0.0],'
            '"dtype":"float64","shape":[2,2]}}'
        )

    def test_ndarray_wrapper_int32(self):
        array = np.array([1, 2, 3], dtype=np.int32)
        assert canonical_json(array) == (
            '{"__ndarray__":{"data":[1,2,3],"dtype":"int32","shape":[3]}}'
        )

    def test_ndarray_c_order_flattening(self):
        # Fortran-ordered memory must still serialize in C (row-major)
        # order, or the same logical matrix would hash two ways.
        c_order = np.array([[1.0, 2.0], [3.0, 4.0]])
        f_order = np.asfortranarray(c_order)
        assert canonical_json(c_order) == canonical_json(f_order)

    def test_ndarray_round_trip_preserves_dtype_and_shape(self):
        array = np.arange(6, dtype=np.float32).reshape(2, 3)
        restored = from_canonical_json(canonical_json(array))
        assert restored.dtype == np.float32
        assert restored.shape == (2, 3)
        assert np.array_equal(restored, array)

    def test_ndarray_rejects_unlisted_dtype(self):
        with pytest.raises(TypeError):
            canonical_json(np.array([1], dtype=np.uint8))
        with pytest.raises(TypeError):
            canonical_json(np.array([1 + 2j]))


class TestGoldenDocument:
    # A composite document exercising every encoding rule at once.  The
    # digest is the frozen contract: if this assertion ever fails, every
    # checkpoint/batch digest in the wild just became unverifiable.
    DOC = {
        "zz": [1, 2.5, None, True],
        "aa": {"nested": {"deep": b"\x01\x02"}},
        "arr": np.array([0.25, -1.0]),
        "ids": frozenset(["beta", "alpha"]),
    }
    GOLDEN = (
        '{"aa":{"nested":{"deep":{"__bytes__":"0102"}}},'
        '"arr":{"__ndarray__":{"data":[0.25,-1.0],"dtype":"float64",'
        '"shape":[2]}},'
        '"ids":["alpha","beta"],'
        '"zz":[1,2.5,null,true]}'
    )
    GOLDEN_SHA256 = (
        "12cbe0127a8e11a1817c178f7400858696dd74ca321dd1231c8b5f9ead30a22f"
    )

    def test_exact_bytes(self):
        assert canonical_json(self.DOC) == self.GOLDEN

    def test_exact_digest(self):
        digest = sha256(canonical_json_bytes(self.DOC)).hexdigest()
        assert digest == self.GOLDEN_SHA256

    def test_insertion_order_irrelevant(self):
        reordered = dict(reversed(list(self.DOC.items())))
        assert canonical_json(reordered) == self.GOLDEN
