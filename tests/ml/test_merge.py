"""Tests for model-merge strategies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MLError, ModelCompatibilityError
from repro.ml.compression import CompressionConfig, compress
from repro.ml.merge import MergeStrategy, merge_parameter_vectors
from repro.ml.models import LinearRegressionModel
from tests.kernels.gossip_oracle import TrackedModel, merge_compressed_into


def tracked(params, age=1, samples=10) -> TrackedModel:
    model = LinearRegressionModel(len(params) - 1)
    model.set_params(np.asarray(params, dtype=float))
    return TrackedModel(model=model, age=age, samples=samples)


def merge_into(local: TrackedModel, remote_params: np.ndarray,
               remote_age: int, remote_samples: int,
               strategy: MergeStrategy) -> None:
    """Merge a dense (uncompressed) gossip message, as a node does."""
    update = compress(remote_params, remote_age, remote_samples,
                      CompressionConfig(), np.random.default_rng(0))
    merge_compressed_into(local, update, strategy)


class TestVectorMerge:
    def test_equal_weights_average(self):
        merged = merge_parameter_vectors(
            [np.array([0.0, 2.0]), np.array([2.0, 0.0])], [1.0, 1.0]
        )
        assert np.allclose(merged, [1.0, 1.0])

    def test_weighted_average(self):
        merged = merge_parameter_vectors(
            [np.array([0.0]), np.array([4.0])], [3.0, 1.0]
        )
        assert np.allclose(merged, [1.0])

    def test_empty_rejected(self):
        with pytest.raises(MLError):
            merge_parameter_vectors([], [])

    def test_zero_weights_rejected(self):
        with pytest.raises(MLError):
            merge_parameter_vectors([np.zeros(2)], [0.0])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=2),
           st.lists(st.floats(-100, 100), min_size=2, max_size=2),
           st.floats(0.01, 10), st.floats(0.01, 10))
    def test_merge_between_inputs(self, a, b, wa, wb):
        merged = merge_parameter_vectors(
            [np.array(a), np.array(b)], [wa, wb]
        )
        low = np.minimum(a, b) - 1e-9
        high = np.maximum(a, b) + 1e-9
        assert np.all(merged >= low) and np.all(merged <= high)


class TestMergeInto:
    def test_average_strategy(self):
        local = tracked([0.0, 0.0])
        merge_into(local, np.array([2.0, 4.0]), remote_age=1,
                   remote_samples=10, strategy=MergeStrategy.AVERAGE)
        assert np.allclose(local.model.params, [1.0, 2.0])

    def test_sample_weighted_strategy(self):
        local = tracked([0.0, 0.0], samples=30)
        merge_into(local, np.array([4.0, 4.0]), remote_age=1,
                   remote_samples=10,
                   strategy=MergeStrategy.SAMPLE_WEIGHTED)
        assert np.allclose(local.model.params, [1.0, 1.0])

    def test_age_weighted_strategy(self):
        local = tracked([0.0, 0.0], age=1)
        merge_into(local, np.array([4.0, 4.0]), remote_age=3,
                   remote_samples=10, strategy=MergeStrategy.AGE_WEIGHTED)
        assert np.allclose(local.model.params, [3.0, 3.0])

    def test_age_updates_to_max(self):
        local = tracked([0.0, 0.0], age=2)
        merge_into(local, np.array([1.0, 1.0]), remote_age=9,
                   remote_samples=1, strategy=MergeStrategy.AVERAGE)
        assert local.age == 9

    def test_incompatible_shape_rejected(self):
        local = tracked([0.0, 0.0])
        with pytest.raises(ModelCompatibilityError):
            merge_into(local, np.zeros(5), remote_age=1, remote_samples=1,
                       strategy=MergeStrategy.AVERAGE)
