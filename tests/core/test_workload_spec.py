"""Tests for workload specifications and the enclave entry point."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.workload import (
    ModelSpec,
    RewardScheme,
    TrainingSpec,
    WorkloadSpec,
    enclave_entry_point,
    join_rows,
    serialize_partition,
)
from repro.errors import WorkloadSpecError
from repro.ml.datasets import Dataset, make_iot_activity
from repro.storage.semantic import ConceptRequirement
from repro.utils.serialization import canonical_json_bytes, from_canonical_json


def make_spec(**overrides) -> WorkloadSpec:
    defaults = dict(
        workload_id="wl-test",
        requirement=ConceptRequirement("sensor_data"),
        model=ModelSpec(family="softmax", num_features=6, num_classes=5),
        training=TrainingSpec(steps=30, learning_rate=0.3),
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestModelSpec:
    def test_all_families_buildable(self):
        for family in ("linear", "logistic", "softmax", "mlp"):
            spec = ModelSpec(family=family, num_features=4, num_classes=3)
            model = spec.build(seed=1)
            assert model.num_params > 0

    def test_unknown_family_rejected(self):
        with pytest.raises(WorkloadSpecError):
            ModelSpec(family="transformer", num_features=4)

    def test_mlp_build_deterministic(self):
        spec = ModelSpec(family="mlp", num_features=4, num_classes=2)
        assert np.array_equal(spec.build(seed=5).params,
                              spec.build(seed=5).params)


class TestWorkloadSpec:
    def test_spec_hash_stable(self):
        assert make_spec().spec_hash == make_spec().spec_hash

    def test_spec_hash_covers_fields(self):
        assert make_spec().spec_hash != make_spec(reward_pool=1).spec_hash

    def test_validation(self):
        with pytest.raises(WorkloadSpecError):
            make_spec(reward_pool=-1)
        with pytest.raises(WorkloadSpecError):
            make_spec(min_providers=0)
        with pytest.raises(WorkloadSpecError):
            make_spec(infra_share_bps=10_000)
        with pytest.raises(WorkloadSpecError):
            make_spec(dp_epsilon=0.0)

    def test_to_dict_round_trips_scheme(self):
        spec = make_spec(reward_scheme=RewardScheme.SHAPLEY)
        assert spec.to_dict()["reward_scheme"] == "shapley"


class TestRowSerialization:
    def test_row_round_trip(self, rng):
        data = make_iot_activity(5, rng)
        rows = serialize_partition(data.features, data.targets)
        records = [from_canonical_json(row) for row in rows]
        assert np.allclose([r["x"] for r in records], data.features)
        assert np.allclose([r["y"] for r in records], data.targets)

    def test_row_bytes_deterministic(self):
        a = serialize_partition(np.array([[1.0, 2.0]]), np.array([1]))
        b = serialize_partition(np.array([[1.0, 2.0]]), np.array([1]))
        assert a == b


def _reference_rows(features, targets) -> list[bytes]:
    """Row by row through ``canonical_json`` (what the bulk encoder replaced)."""
    return [
        canonical_json_bytes({
            "x": [float(v) for v in np.asarray(features[index]).ravel()],
            "y": float(targets[index]),
        })
        for index in range(len(features))
    ]


def _reference_payload(dataset: Dataset) -> bytes:
    """The partition document, encoded from the values a second time."""
    return canonical_json_bytes([
        {"x": [float(v) for v in dataset.features[i]],
         "y": float(dataset.targets[i])}
        for i in range(len(dataset))
    ])


_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
_TARGETS = st.one_of(
    hnp.arrays(np.float64, 7, elements=_FINITE),
    hnp.arrays(np.int64, 7, elements=st.integers(-2**53, 2**53)),
)


class TestSameRowBytes:
    """One bulk encoding; the bytes are those of ``canonical_json``."""

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, (7, 3), elements=_FINITE), _TARGETS)
    def test_rows_and_payload_match_canonical_json(self, features, targets):
        rows = serialize_partition(features, targets)
        assert rows == _reference_rows(features, targets)
        assert join_rows(rows) == _reference_payload(
            Dataset(features=features, targets=targets))

    def test_signed_zero_float32_and_integer_features(self):
        for features in (np.array([[-0.0, 0.0], [1e-320, -1e300]]),
                         np.array([[0.1, 2.5]], dtype=np.float32),
                         np.array([[1, -2], [3, 4]])):
            targets = np.arange(len(features))
            rows = serialize_partition(features, targets)
            assert rows == _reference_rows(features, targets)
        assert b"-0.0" in serialize_partition(np.array([[-0.0]]),
                                              np.array([1]))[0]

    def test_one_dimensional_features(self):
        features, targets = np.array([0.5, -1.25, 3.0]), np.array([0, 1, 0])
        rows = serialize_partition(features, targets)
        assert rows == _reference_rows(features, targets)
        assert rows[0] == serialize_partition(features[:1], targets[:1])[0]
        assert rows[1] == b'{"x":[-1.25],"y":1.0}'

    def test_empty_partition(self):
        assert serialize_partition(np.empty((0, 3)), np.empty(0)) == []
        assert join_rows([]) == canonical_json_bytes([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError):
            serialize_partition(np.array([[1.0, bad]]), np.array([0.0]))
        with pytest.raises(ValueError):
            serialize_partition(np.array([[1.0, 2.0]]), np.array([bad]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            serialize_partition(np.zeros((3, 2)), np.zeros(2))


class TestEnclaveEntryPoint:
    def _inputs_for(self, parts):
        return {f"provider:0x{index:040x}": _reference_payload(part)
                for index, part in enumerate(parts)}

    def test_trains_and_reports_counts(self, rng):
        data = make_iot_activity(120, rng)
        parts = [data.subset(np.arange(0, 60)),
                 data.subset(np.arange(60, 120))]
        spec = make_spec()
        output = enclave_entry_point(self._inputs_for(parts), spec.to_dict(),
                                     training_seed=1)
        assert len(output["params"]) == spec.model.build().num_params
        assert output["trained_samples"] == 120
        assert sorted(output["sample_counts"].values()) == [60, 60]
        assert output["achieved_epsilon"] is None

    def test_deterministic(self, rng):
        data = make_iot_activity(80, rng)
        parts = [data.subset(np.arange(0, 40)),
                 data.subset(np.arange(40, 80))]
        spec = make_spec()
        a = enclave_entry_point(self._inputs_for(parts), spec.to_dict(), 7)
        b = enclave_entry_point(self._inputs_for(parts), spec.to_dict(), 7)
        assert a["params"] == b["params"]

    def test_no_data_rejected(self):
        spec = make_spec()
        with pytest.raises(WorkloadSpecError):
            enclave_entry_point({}, spec.to_dict(), 1)

    def test_dp_variant_reports_epsilon(self, rng):
        data = make_iot_activity(150, rng)
        parts = [data.subset(np.arange(0, 75)),
                 data.subset(np.arange(75, 150))]
        spec = make_spec(dp_epsilon=4.0,
                         training=TrainingSpec(steps=25, learning_rate=0.2))
        output = enclave_entry_point(self._inputs_for(parts), spec.to_dict(),
                                     training_seed=1)
        assert output["achieved_epsilon"] is not None
        assert output["achieved_epsilon"] <= 4.0 * 1.05

    def test_shapley_variant_reports_fractions(self, rng):
        data = make_iot_activity(200, rng)
        parts = [data.subset(np.arange(0, 100)),
                 data.subset(np.arange(100, 200))]
        spec = make_spec(reward_scheme=RewardScheme.SHAPLEY,
                         training=TrainingSpec(steps=40, learning_rate=0.3))
        output = enclave_entry_point(self._inputs_for(parts), spec.to_dict(),
                                     training_seed=1)
        fractions = output["shapley_fractions"]
        assert len(fractions) == 2
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert all(f >= 0 for f in fractions.values())
