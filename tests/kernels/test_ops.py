"""Unit tests for the stacked kernels in ``repro.kernels.ops``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import ops
from repro.ml.models import SoftmaxRegressionModel


@pytest.fixture
def family():
    return ops.SoftmaxFamily(num_features=6, num_classes=5, l2=0.01)


class TestSoftmaxFamily:
    def test_stacked_step_matches_individual_models(self, family, rng):
        """A G-stack SGD step equals G independent G=1 steps bit-for-bit
        — the core property the kernel engine's equivalence rests on."""
        group, batch = 7, 4
        params = rng.normal(size=(group, family.num_params))
        features = rng.normal(size=(group, batch, family.num_features))
        targets = rng.integers(0, family.num_classes, size=(group, batch))

        stacked = params.copy()
        family.sgd_step(stacked, features, targets, learning_rate=0.2)

        for g in range(group):
            single = params[g:g + 1].copy()
            family.sgd_step(single, features[g:g + 1], targets[g:g + 1],
                            learning_rate=0.2)
            assert np.array_equal(stacked[g], single[0])

    def test_step_matches_model_object(self, family, rng):
        """The family step reproduces SoftmaxRegressionModel.sgd_step on
        the model's own parameter buffer, bit-for-bit."""
        model = SoftmaxRegressionModel(6, 5, l2=0.01)
        batch_x = rng.normal(size=(4, 6))
        batch_y = rng.integers(0, 5, size=4)
        expected = SoftmaxRegressionModel(6, 5, l2=0.01)
        expected.sgd_step(batch_x, batch_y, learning_rate=0.3)

        params = model.params_buffer()[None, :]
        family.sgd_step(params, batch_x[None, :, :], batch_y[None, :],
                        learning_rate=0.3)
        assert np.array_equal(model.params, expected.params)

    def test_scores_match_model_score(self, family, rng):
        models = [SoftmaxRegressionModel(6, 5, l2=0.01) for _ in range(3)]
        for model in models:
            model.sgd_step(rng.normal(size=(8, 6)),
                           rng.integers(0, 5, size=8), learning_rate=0.5)
        features = rng.normal(size=(40, 6))
        targets = rng.integers(0, 5, size=40)
        stacked = np.stack([m.params for m in models])
        scores = family.scores(stacked, features, targets)
        for g, model in enumerate(models):
            assert scores[g] == model.score(features, targets)

    def test_scores_blocking_invariant(self, family, rng):
        """Scores are identical whether G is below or above the internal
        block size (the blocked path must not change any row)."""
        group = 600  # crosses the 256-row block boundary twice
        params = rng.normal(size=(group, family.num_params))
        features = rng.normal(size=(30, 6))
        targets = rng.integers(0, 5, size=30)
        blocked = family.scores(params, features, targets)
        rows = [family.scores(params[g:g + 1], features, targets)[0]
                for g in range(group)]
        assert np.array_equal(blocked, np.array(rows))

    def test_family_of(self):
        assert ops.family_of(SoftmaxRegressionModel(3, 4)) is not None
        assert ops.family_of(object()) is None  # type: ignore[arg-type]


class TestMergeKernels:
    def test_scalar_and_column_weights_agree(self, rng):
        """Scalar weights (object engine) and (G,1) columns (kernel
        engine) must produce identical floating point."""
        local = rng.normal(size=(5, 12))
        remote = rng.normal(size=(5, 12))
        w_local = np.array([1.0, 3.0, 7.0, 2.0, 5.0])
        w_remote = np.array([2.0, 1.0, 1.0, 9.0, 4.0])
        column = ops.convex_combine_rows(
            local, remote, w_local[:, None], w_remote[:, None])
        for g in range(5):
            row = ops.convex_combine_rows(
                local[g], remote[g], w_local[g], w_remote[g])
            assert np.array_equal(column[g], row)

    def test_quantize_round_trip_matches_compression(self, rng):
        from repro.ml.compression import (
            CompressionConfig,
            CompressionKind,
            compress,
            decompress_dense,
        )

        values = rng.normal(size=(4, 20))
        codes, low, high = ops.quantize_rows(values, bits=8)
        dense = ops.dequantize_rows(codes, low, high, bits=8)
        config = CompressionConfig(kind=CompressionKind.QUANTIZE,
                                   quantize_bits=8)
        for g in range(4):
            update = compress(values[g], age=1, samples=1, config=config,
                              rng=rng)
            assert np.array_equal(dense[g], decompress_dense(update))

    def test_quantize_constant_row(self):
        values = np.full((1, 6), 3.25)
        codes, low, high = ops.quantize_rows(values, bits=8)
        assert np.array_equal(ops.dequantize_rows(codes, low, high, 8),
                              values)


class TestIntegerKernels:
    def test_clamped_floor_indices_match_scalar_loop(self, rng):
        uniforms = rng.random(1000)
        limits = rng.integers(1, 50, size=1000)
        indices = ops.clamped_floor_indices(uniforms, limits)
        expected = [min(int(u * limit), limit - 1)
                    for u, limit in zip(uniforms.tolist(), limits.tolist())]
        assert indices.tolist() == expected
        assert indices.dtype == np.int64
        assert (indices >= 0).all()
        assert (indices < limits).all()

    def test_clamp_guards_exact_hit(self):
        # u close enough to 1 that u * limit rounds to limit.
        uniforms = np.array([np.nextafter(1.0, 0.0)])
        limits = np.array([49])
        assert ops.clamped_floor_indices(uniforms, limits)[0] == 48

    def test_counts_to_offsets(self):
        counts = np.array([3, 0, 2, 5], dtype=np.int64)
        expected = np.array([0, 3, 3, 5, 10], dtype=np.int64)
        assert np.array_equal(ops.counts_to_offsets(counts), expected)

    def test_empty_inputs(self):
        empty_f = np.empty(0)
        empty_i = np.empty(0, dtype=np.int64)
        assert len(ops.clamped_floor_indices(empty_f, empty_i)) == 0
        assert np.array_equal(ops.counts_to_offsets(empty_i),
                              np.array([0], dtype=np.int64))


class TestScheduleHelpers:
    def test_wake_schedule_contents(self):
        times = ops.wake_schedule(2.5, 10.0, 35.0)
        assert np.array_equal(times, np.array([2.5, 12.5, 22.5, 32.5]))

    def test_wake_schedule_first_past_duration(self):
        assert len(ops.wake_schedule(40.0, 10.0, 35.0)) == 0

    def test_wake_schedule_includes_boundary(self):
        assert ops.wake_schedule(0.0, 5.0, 20.0)[-1] == 20.0

    def test_sample_eval_indices_deterministic(self):
        a = ops.sample_eval_indices(7, 100)
        b = ops.sample_eval_indices(7, 100)
        assert np.array_equal(a, b)
        assert len(a) == 16
        assert len(np.unique(a)) == 16
        assert np.array_equal(a, np.sort(a))

    def test_sample_eval_indices_clamps_to_population(self):
        indices = ops.sample_eval_indices(7, 5)
        assert np.array_equal(indices, np.arange(5))
