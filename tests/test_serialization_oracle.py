"""Canonical JSON against the recursive walk it replaced.

The production encoder hands the tree to the C ``json`` module, which on
its own would relax three rules the walk enforced: it stringifies
``1``/``True``/``None`` dict keys, it does not know the reserved wrapper
keys, and it converts whatever its ``default`` hook is given.  The
differential test holds every generated document to the walk's bytes and
round trip; the explicit tests pin the cases the bare C encoder gets
wrong.
"""

from __future__ import annotations

import enum
import math
from collections import OrderedDict, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.serialization import canonical_json, from_canonical_json
from tests import serialization_oracle as oracle

_DTYPES = ("float64", "float32", "int64", "int32", "bool")
_RESERVED = ("__bytes__", "__ndarray__")

_finite = st.floats(allow_nan=False, allow_infinity=False)
_floats = st.one_of(_finite, st.sampled_from([-0.0, 0.0, 1e300, -1e300]))
_ints = st.integers(-2**63, 2**63 - 1)

_numpy_scalars = st.one_of(
    _ints.map(np.int64),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    _floats.map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.booleans().map(np.bool_),
)

_elements = {
    "float64": _floats,
    "float32": st.floats(allow_nan=False, allow_infinity=False, width=32),
    "int64": _ints,
    "int32": st.integers(-2**31, 2**31 - 1),
    "bool": st.booleans(),
}


@st.composite
def _ndarrays(draw):
    dtype = draw(st.sampled_from(_DTYPES))
    shape = draw(st.lists(st.integers(0, 3), max_size=3))
    size = math.prod(shape)
    data = draw(st.lists(_elements[dtype], min_size=size, max_size=size))
    return np.array(data, dtype=dtype).reshape(shape)


_hashable = st.one_of(st.none(), st.booleans(), _ints, _floats,
                      st.text(max_size=8), st.binary(max_size=8))

_leaves = st.one_of(
    st.none(), st.booleans(), _ints, _floats, st.text(max_size=12),
    st.binary(max_size=12), _numpy_scalars, _ndarrays(),
    st.frozensets(_hashable, max_size=4), st.sets(_hashable, max_size=4),
)

_keys = st.text(max_size=8).filter(lambda key: key not in _RESERVED)

_documents = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
    ),
    max_leaves=16,
)


def _same(left, right) -> bool:
    """Equal values of equal types; ndarrays by dtype, shape and bytes,
    floats by sign too (``-0.0`` is not ``0.0`` on the wire)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, np.ndarray):
        return (left.dtype == right.dtype and left.shape == right.shape
                and left.tobytes() == right.tobytes())
    if isinstance(left, dict):
        return (list(left) == list(right)
                and all(_same(left[key], right[key]) for key in left))
    if isinstance(left, list):
        return (len(left) == len(right)
                and all(_same(a, b) for a, b in zip(left, right)))
    if isinstance(left, float):
        return left == right and math.copysign(1, left) == math.copysign(
            1, right)
    return left == right


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_documents)
    def test_bytes_and_round_trip_match_the_walk(self, value):
        encoded = canonical_json(value)
        assert encoded == oracle.canonical_json(value)
        assert _same(from_canonical_json(encoded),
                     oracle.from_canonical_json(encoded))

    @pytest.mark.parametrize("dtype", _DTYPES)
    def test_every_allowed_dtype(self, dtype):
        array = np.arange(6).astype(dtype).reshape(2, 3)
        encoded = canonical_json({"a": array, "s": [array[0]]})
        assert encoded == oracle.canonical_json({"a": array, "s": [array[0]]})
        assert _same(from_canonical_json(encoded),
                     oracle.from_canonical_json(encoded))


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Colour(str, enum.Enum):
    RED = "red"


_Point = namedtuple("_Point", "x y")


class TestRulesTheCEncoderWouldRelax:
    @pytest.mark.parametrize("key", [1, 1.5, True, None])
    def test_non_string_keys_raise(self, key):
        for encode in (canonical_json, oracle.canonical_json):
            with pytest.raises(TypeError):
                encode({key: "x"})
            with pytest.raises(TypeError):
                encode({"outer": [{"ok": 1}, ({key: "x"},)]})

    @pytest.mark.parametrize("key", _RESERVED)
    @pytest.mark.parametrize("container", [list, tuple])
    def test_reserved_key_under_a_sequence_raises(self, key, container):
        for encode in (canonical_json, oracle.canonical_json):
            with pytest.raises(ValueError):
                encode(container([1, {"a": {key: "00"}}]))
            with pytest.raises(ValueError):
                encode({"rows": container([{key: "00"}])})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), np.float32("nan"),
                                     np.float64("inf"),
                                     np.array([1.0, float("nan")])])
    def test_nested_non_finite_floats_raise(self, bad):
        for encode in (canonical_json, oracle.canonical_json):
            with pytest.raises(ValueError):
                encode({"a": [1, {"b": (bad,)}]})

    @pytest.mark.parametrize("value", [
        _Level.HIGH,
        [_Level.LOW, {"level": _Level.HIGH}],
        _Colour.RED,
        {"colour": _Colour.RED, _Colour.RED: 1},
        OrderedDict([("b", 1), ("a", OrderedDict([("d", 2), ("c", 3)]))]),
        _Point(1, [2.5, _Point("x", None)]),
        {"p": _Point(b"\x01", np.int32(3))},
        {frozenset([_Level.LOW, 3]), "x"} - {"x"},
    ])
    def test_subclass_values_encode_as_the_walk(self, value):
        assert canonical_json(value) == oracle.canonical_json(value)

    @pytest.mark.parametrize("value", [bytearray(b"x"), object(),
                                       {"a": [memoryview(b"x")]},
                                       np.array([1], dtype=np.uint8),
                                       np.complex128(1)])
    def test_unsupported_types_raise(self, value):
        for encode in (canonical_json, oracle.canonical_json):
            with pytest.raises(TypeError):
                encode(value)
