"""The packed float64 partition format: round trip, decoder robustness, and
a differential against the canonical-JSON rows it replaced."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.core.aggregates as aggregates_module
import repro.core.workload as workload_module
from repro.core.aggregates import (
    AggregateKind,
    AggregateSpec,
    aggregate_enclave_entry_point,
)
from repro.core.workload import (
    ModelSpec,
    TrainingSpec,
    decode_partition,
    enclave_entry_point,
    join_rows,
    serialize_partition,
)
from repro.errors import WorkloadSpecError
from repro.ml.datasets import make_iot_activity
from tests import json_rows_oracle

_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
_ROWS = st.integers(1, 9)


def document(features, targets) -> bytes:
    return join_rows(serialize_partition(features, targets))


def assert_bit_equal(decoded, expected) -> None:
    expected = np.asarray(expected, dtype=np.float64)
    assert decoded.dtype == np.float64
    assert decoded.shape == expected.shape
    assert np.ascontiguousarray(decoded).tobytes() == expected.tobytes()


def assert_round_trip(features, targets) -> None:
    decoded_x, decoded_y = decode_partition(document(features, targets))
    assert_bit_equal(decoded_x, np.asarray(features).reshape(len(features),
                                                               -1))
    assert_bit_equal(decoded_y, targets)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_float64_features(self, data):
        rows = data.draw(_ROWS)
        features = data.draw(hnp.arrays(
            np.float64, (rows, data.draw(st.integers(1, 6))),
            elements=_FINITE))
        targets = data.draw(hnp.arrays(np.float64, rows, elements=_FINITE))
        assert_round_trip(features, targets)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_float32_and_integer_features(self, data):
        rows = data.draw(_ROWS)
        float32 = data.draw(hnp.arrays(
            np.float32, (rows, 3),
            elements=st.floats(allow_nan=False, allow_infinity=False,
                               width=32)))
        integers = data.draw(hnp.arrays(
            np.int64, (rows, 2), elements=st.integers(-2**53, 2**53)))
        targets = data.draw(hnp.arrays(
            np.int64, rows, elements=st.integers(-2**53, 2**53)))
        assert_round_trip(float32, targets)
        assert_round_trip(integers, targets)

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 9), elements=_FINITE))
    def test_one_dimensional_features(self, features):
        targets = np.arange(len(features), dtype=float)
        decoded_x, _ = decode_partition(document(features, targets))
        assert decoded_x.shape == (len(features), 1)
        assert_round_trip(features, targets)

    def test_signed_zero_and_subnormals(self):
        tiny = np.nextafter(0.0, 1.0)
        features = np.array([[-0.0, 0.0], [tiny, -tiny], [1e-310, -5e-324]])
        targets = np.array([-0.0, 2.2250738585072009e-308, -tiny])
        assert_round_trip(features, targets)
        decoded_x, decoded_y = decode_partition(document(features, targets))
        assert np.signbit(decoded_x[0, 0]) and np.signbit(decoded_y[0])


def one_row() -> bytes:
    """One row of the IoT data set's width: six features and the target."""
    return document(np.arange(1.0, 7.0).reshape(1, 6), np.array([3.0]))


def flip(blob: bytes, bit: int) -> bytes:
    raw = bytearray(blob)
    raw[bit // 8] ^= 1 << (bit % 8)
    return bytes(raw)


class TestDecoderRobustness:
    """Every malformed document raises ``WorkloadSpecError`` and nothing
    else."""

    def test_truncation_of_one_row_at_every_length(self):
        blob = one_row()
        for length in range(len(blob)):
            with pytest.raises(WorkloadSpecError):
                decode_partition(blob[:length])

    def test_truncation_inside_a_row_at_every_length(self):
        features = np.arange(12.0).reshape(4, 3)
        blob = document(features, np.arange(4.0))
        row = 8 * 4
        for length in range(len(blob)):
            if length > 4 and (length - 4) % row == 0:
                # A whole-row prefix is a shorter partition; the Merkle
                # root in the certificate is what binds the row count.
                kept = (length - 4) // row
                assert_bit_equal(decode_partition(blob[:length])[0],
                                 features[:kept])
                continue
            with pytest.raises(WorkloadSpecError):
                decode_partition(blob[:length])

    def test_every_header_bit_flip_of_one_row(self):
        blob = one_row()
        for bit in range(32):
            with pytest.raises(WorkloadSpecError):
                decode_partition(flip(blob, bit))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_header_bit_flip_raises_or_retiles_the_same_bytes(self, data):
        rows = data.draw(_ROWS)
        features = data.draw(hnp.arrays(
            np.float64, (rows, data.draw(st.integers(1, 6))),
            elements=_FINITE))
        blob = document(features, np.zeros(rows))
        flipped = flip(blob, data.draw(st.integers(0, 31)))
        try:
            decoded_x, decoded_y = decode_partition(flipped)
        except WorkloadSpecError:
            return
        retiled = np.column_stack((decoded_x, decoded_y))
        assert retiled.tobytes() == blob[4:]

    @pytest.mark.parametrize("width", [0, 1, 2**32 - 1])
    def test_bad_widths(self, width):
        body = one_row()[4:]
        for blob in (struct.pack("<I", width),
                     struct.pack("<I", width) + body):
            with pytest.raises(WorkloadSpecError):
                decode_partition(blob)

    def test_trailing_bytes(self):
        blob = one_row()
        for extra in range(1, 8 * 7):
            with pytest.raises(WorkloadSpecError):
                decode_partition(blob + b"\x00" * extra)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_values(self, bad):
        blob = document(np.ones((3, 2)), np.ones(3))
        for slot in range(9):
            start = 4 + 8 * slot
            forged = blob[:start] + struct.pack("<d", bad) + blob[start + 8:]
            with pytest.raises(WorkloadSpecError):
                decode_partition(forged)


# ---------------------------------------------------------------------------
# Differential: the entry points read either format to equal outputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def parts():
    rng = np.random.default_rng(39)
    data = make_iot_activity(180, rng)
    return [data.subset(np.arange(start, start + 60))
            for start in (0, 60, 120)]


def packed_inputs(parts) -> dict:
    return {f"provider:0x{index:040x}": document(part.features, part.targets)
            for index, part in enumerate(parts)}


def json_inputs(parts) -> dict:
    return {f"provider:0x{index:040x}": json_rows_oracle.join(
                json_rows_oracle.serialize_rows(part.features, part.targets))
            for index, part in enumerate(parts)}


def outputs_from_both(monkeypatch, parts, run):
    """``run(inputs)`` on packed rows, then on JSON rows decoded the way
    both entry points did before."""
    packed = run(packed_inputs(parts))
    with monkeypatch.context() as patch:
        for module in (workload_module, aggregates_module):
            patch.setattr(module, "decode_partition", json_rows_oracle.decode)
        oracle = run(json_inputs(parts))
    return packed, oracle


def test_both_decoders_read_equal_arrays(parts):
    for packed, oracle in zip(packed_inputs(parts).values(),
                              json_inputs(parts).values()):
        for ours, theirs in zip(decode_partition(packed),
                                json_rows_oracle.decode(oracle)):
            assert_bit_equal(ours, theirs)


@pytest.mark.parametrize("family", ["linear", "softmax", "mlp"])
@pytest.mark.parametrize("dp_epsilon", [None, 4.0])
def test_training_entry_point_equal_from_either_format(
        monkeypatch, parts, family, dp_epsilon):
    spec_dict = {
        "model": ModelSpec(family=family, num_features=6,
                           num_classes=5).to_dict(),
        "training": TrainingSpec(steps=20, learning_rate=0.2).to_dict(),
        "dp_epsilon": dp_epsilon,
    }
    packed, oracle = outputs_from_both(
        monkeypatch, parts,
        lambda inputs: enclave_entry_point(inputs, spec_dict, 5))
    assert packed == oracle
    assert sorted(packed["sample_counts"].values()) == [60, 60, 60]


@pytest.mark.parametrize("kind", list(AggregateKind))
@pytest.mark.parametrize("dp_epsilon", [None, 0.5])
def test_aggregate_entry_point_equal_from_either_format(
        monkeypatch, parts, kind, dp_epsilon):
    spec = AggregateSpec(
        kind=kind, field_index=2,
        bin_edges=(-2.0, -1.0, 0.0, 1.0, 2.0)
        if kind is AggregateKind.HISTOGRAM else (),
        dp_epsilon=dp_epsilon)
    packed, oracle = outputs_from_both(
        monkeypatch, parts,
        lambda inputs: aggregate_enclave_entry_point(inputs, spec.to_dict(),
                                                     9))
    assert packed == oracle
    assert packed["total_samples"] == 180
