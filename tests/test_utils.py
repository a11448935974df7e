"""Tests for canonical serialization, the JSONL reader and RNG discipline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.rng import derive_rng, derive_seed, rng_from_seed
from repro.utils.serialization import (
    canonical_json,
    canonical_json_bytes,
    from_canonical_json,
    read_jsonl,
)


class TestCanonicalJson:
    def test_sorted_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_key_order_independence(self):
        left = canonical_json({"x": 1, "y": {"b": 2, "a": 3}})
        right = canonical_json({"y": {"a": 3, "b": 2}, "x": 1})
        assert left == right

    def test_bytes_round_trip(self):
        payload = {"blob": b"\x00\x01\xff", "name": "x"}
        restored = from_canonical_json(canonical_json(payload))
        assert restored == payload

    def test_tuple_becomes_list(self):
        assert from_canonical_json(canonical_json((1, 2))) == [1, 2]

    def test_nested_structures(self):
        payload = {"a": [1, {"b": b"zz"}, None, True], "c": -1.5}
        assert from_canonical_json(canonical_json(payload)) == payload

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            canonical_json({1: "x"})

    def test_rejects_reserved_key(self):
        with pytest.raises(ValueError):
            canonical_json({"__bytes__": "abc"})

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            canonical_json(float("inf"))

    def test_rejects_arbitrary_objects(self):
        with pytest.raises(TypeError):
            canonical_json(object())

    def test_bytes_output_is_utf8(self):
        assert canonical_json_bytes({"a": 1}) == b'{"a":1}'

    @pytest.mark.parametrize("document, wrapper", [
        ('{"__ndarray__":{"data":[1]}}', "__ndarray__"),
        ('{"__ndarray__":{"dtype":"int64","shape":[1]}}', "__ndarray__"),
        ('{"__ndarray__":5}', "__ndarray__"),
        ('[{"__bytes__":5}]', "__bytes__"),
        ('{"a":{"__bytes__":["00"]}}', "__bytes__"),
        ('{"__ndarray__":{"data":[1],"dtype":"uint8","shape":[1]}}',
         "__ndarray__"),
        ('{"__ndarray__":{"data":[1],"dtype":"object","shape":[1]}}',
         "__ndarray__"),
        ('{"__ndarray__":{"data":[1,2,3],"dtype":"int64","shape":[2]}}',
         "__ndarray__"),
        ('{"__ndarray__":{"data":[[1],[2]],"dtype":"int64","shape":[2]}}',
         "__ndarray__"),
        ('{"__ndarray__":{"data":[1,2],"dtype":"int64","shape":[-1]}}',
         "__ndarray__"),
        ('{"__ndarray__":{"data":[null],"dtype":"int64","shape":[1]}}',
         "__ndarray__"),
    ])
    def test_malformed_wrapper_is_a_value_error(self, document, wrapper):
        with pytest.raises(ValueError, match=wrapper):
            from_canonical_json(document)

    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-10**9, 10**9),
                  st.text(max_size=20), st.binary(max_size=20)),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(
                st.text(max_size=8).filter(lambda s: s != "__bytes__"),
                children, max_size=4,
            ),
        ),
        max_leaves=12,
    ))
    def test_round_trip_property(self, value):
        encoded = canonical_json(value)
        restored = from_canonical_json(encoded)
        # Lists/tuples normalize; everything else round-trips exactly.
        assert canonical_json(restored) == encoded


class TestReadJsonl:
    """The one torn-tail reader behind the jobs journal, span sidecars,
    event traces and chain run directories (each caller also tests its own
    typed error)."""

    def test_missing_file_is_empty(self, tmp_path):
        assert read_jsonl(str(tmp_path / "nope.jsonl"), ValueError) == []

    def test_torn_tail_and_blank_lines_are_dropped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n{"tor', encoding="utf-8")
        assert read_jsonl(str(path), ValueError) == [{"a": 1}, {"b": 2}]

    def test_mid_file_garbage_raises_the_callers_error(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{tor\n{"b": 2}\n', encoding="utf-8")
        with pytest.raises(KeyError, match="line 2"):
            read_jsonl(str(path), KeyError)

    def test_a_line_that_is_not_an_object_raises_the_callers_error(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n[1, 2]\n', encoding="utf-8")
        with pytest.raises(KeyError, match="line 2"):
            read_jsonl(str(path), KeyError)


class TestRng:
    def test_same_seed_same_stream(self):
        a = rng_from_seed(5).integers(0, 1000, 10)
        b = rng_from_seed(5).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            rng_from_seed(-1)

    def test_derive_seed_deterministic(self):
        assert derive_seed(7, "x") == derive_seed(7, "x")

    def test_derive_seed_label_separation(self):
        assert derive_seed(7, "x") != derive_seed(7, "y")

    def test_derive_seed_parent_separation(self):
        assert derive_seed(7, "x") != derive_seed(8, "x")

    def test_derive_rng_streams_independent(self):
        a = derive_rng(1, "alpha").random(5)
        b = derive_rng(1, "beta").random(5)
        assert not np.allclose(a, b)

    def test_derive_seed_rejects_negative(self):
        with pytest.raises(ValueError):
            derive_seed(-3, "x")
