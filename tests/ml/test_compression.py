"""Tests for communication-efficient gossip compression."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MLError, ModelCompatibilityError
from repro.ml.compression import (
    CompressionConfig,
    CompressionKind,
    compress,
)
from repro.ml.gossip import GossipConfig, GossipTrainer
from repro.ml.merge import MergeStrategy
from repro.ml.models import LinearRegressionModel, SoftmaxRegressionModel
from tests.kernels.gossip_oracle import (
    TrackedModel,
    decompress_dense,
    merge_compressed_into,
)


def dense_size(num_params: int) -> int:
    """Wire size of an uncompressed update: envelope + float64 values."""
    return 64 + num_params * 8


def tracked(params, age=1, samples=10) -> TrackedModel:
    model = LinearRegressionModel(len(params) - 1)
    model.set_params(np.asarray(params, dtype=float))
    return TrackedModel(model=model, age=age, samples=samples)


class TestConfig:
    def test_invalid_fraction_rejected(self):
        with pytest.raises(MLError):
            CompressionConfig(subsample_fraction=0.0)
        with pytest.raises(MLError):
            CompressionConfig(subsample_fraction=1.5)

    def test_invalid_bits_rejected(self):
        with pytest.raises(MLError):
            CompressionConfig(quantize_bits=1)
        with pytest.raises(MLError):
            CompressionConfig(quantize_bits=64)


class TestNone:
    def test_round_trip(self, rng):
        params = rng.normal(size=16)
        update = compress(params, 3, 20, CompressionConfig(), rng)
        assert np.allclose(decompress_dense(update), params)
        assert update.age == 3 and update.samples == 20

    def test_size_matches_dense(self, rng):
        params = rng.normal(size=16)
        update = compress(params, 1, 1, CompressionConfig(), rng)
        assert update.size_bytes == dense_size(16) == 64 + 16 * 8


class TestSubsample:
    def test_sends_fraction(self, rng):
        params = rng.normal(size=100)
        config = CompressionConfig(kind=CompressionKind.SUBSAMPLE,
                                   subsample_fraction=0.25)
        update = compress(params, 1, 1, config, rng)
        assert len(update.indices) == 25
        assert np.allclose(update.values, params[update.indices])

    def test_smaller_on_wire(self, rng):
        params = rng.normal(size=100)
        config = CompressionConfig(kind=CompressionKind.SUBSAMPLE,
                                   subsample_fraction=0.25)
        update = compress(params, 1, 1, config, rng)
        assert update.size_bytes / dense_size(update.num_params) < 0.5

    def test_no_dense_reconstruction(self, rng):
        config = CompressionConfig(kind=CompressionKind.SUBSAMPLE)
        update = compress(rng.normal(size=10), 1, 1, config, rng)
        with pytest.raises(MLError):
            decompress_dense(update)

    def test_merge_moves_only_sent_coordinates(self, rng):
        local = tracked(np.zeros(10))
        config = CompressionConfig(kind=CompressionKind.SUBSAMPLE,
                                   subsample_fraction=0.3)
        remote = np.full(10, 4.0)
        update = compress(remote, 1, 10, config, rng)
        merge_compressed_into(local, update, MergeStrategy.AVERAGE)
        params = local.model.params
        touched = set(int(i) for i in update.indices)
        for index in range(10):
            if index in touched:
                assert params[index] == pytest.approx(2.0)
            else:
                assert params[index] == 0.0


class TestQuantize:
    def test_reconstruction_error_bounded(self, rng):
        params = rng.normal(size=50)
        config = CompressionConfig(kind=CompressionKind.QUANTIZE,
                                   quantize_bits=8)
        update = compress(params, 1, 1, config, rng)
        restored = decompress_dense(update)
        span = params.max() - params.min()
        assert np.abs(restored - params).max() <= span / 255 + 1e-12

    def test_more_bits_less_error(self, rng):
        params = rng.normal(size=50)

        def error(bits):
            config = CompressionConfig(kind=CompressionKind.QUANTIZE,
                                       quantize_bits=bits)
            update = compress(params, 1, 1, config, rng)
            return np.abs(decompress_dense(update) - params).max()

        assert error(16) < error(4)

    def test_constant_vector(self, rng):
        params = np.full(8, 3.14)
        config = CompressionConfig(kind=CompressionKind.QUANTIZE)
        update = compress(params, 1, 1, config, rng)
        assert np.allclose(decompress_dense(update), params)

    def test_8bit_is_8x_smaller(self, rng):
        params = rng.normal(size=1000)
        config = CompressionConfig(kind=CompressionKind.QUANTIZE,
                                   quantize_bits=8)
        update = compress(params, 1, 1, config, rng)
        assert update.size_bytes / dense_size(update.num_params) < 0.2

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=32),
           st.integers(4, 16))
    def test_quantize_error_property(self, values, bits):
        rng = np.random.default_rng(5)
        params = np.array(values)
        config = CompressionConfig(kind=CompressionKind.QUANTIZE,
                                   quantize_bits=bits)
        update = compress(params, 1, 1, config, rng)
        restored = decompress_dense(update)
        span = params.max() - params.min()
        levels = (1 << bits) - 1
        assert np.abs(restored - params).max() <= span / levels + 1e-9


class TestMergeShapes:
    def test_incompatible_update_rejected(self, rng):
        local = tracked(np.zeros(5))
        update = compress(np.zeros(9), 1, 1, CompressionConfig(), rng)
        with pytest.raises(ModelCompatibilityError):
            merge_compressed_into(local, update, MergeStrategy.AVERAGE)

    def test_age_updated(self, rng):
        local = tracked(np.zeros(5), age=2)
        update = compress(np.ones(5), 9, 1, CompressionConfig(), rng)
        merge_compressed_into(local, update, MergeStrategy.AVERAGE)
        assert local.age == 9


class TestGossipIntegration:
    @pytest.fixture(scope="class")
    def problem(self):
        from repro.ml.datasets import (
            make_iot_activity,
            split_dirichlet,
            train_test_split,
        )

        rng = np.random.default_rng(71)
        data = make_iot_activity(1200, rng)
        train, test = train_test_split(data, 0.25, rng)
        parts = split_dirichlet(train, 12, 1.0, rng, min_samples=10)
        return parts, test

    def _run(self, problem, compression) -> tuple[float, int]:
        parts, test = problem
        trainer = GossipTrainer(
            lambda: SoftmaxRegressionModel(6, 5), parts, test,
            GossipConfig(wake_interval_s=10, learning_rate=0.3,
                         compression=compression),
            seed=1,
        )
        result = trainer.run(500, 500)
        return result.final_mean_score, result.bytes_delivered

    def test_quantized_gossip_saves_bytes_keeps_accuracy(self, problem):
        plain_acc, plain_bytes = self._run(problem, CompressionConfig())
        quant_acc, quant_bytes = self._run(
            problem,
            CompressionConfig(kind=CompressionKind.QUANTIZE,
                              quantize_bits=8),
        )
        assert quant_bytes < 0.5 * plain_bytes
        assert quant_acc > plain_acc - 0.05

    def test_subsampled_gossip_saves_bytes(self, problem):
        plain_acc, plain_bytes = self._run(problem, CompressionConfig())
        sub_acc, sub_bytes = self._run(
            problem,
            CompressionConfig(kind=CompressionKind.SUBSAMPLE,
                              subsample_fraction=0.25),
        )
        assert sub_bytes < 0.7 * plain_bytes
        assert sub_acc > 0.4  # learns, though slower
