"""Differential tests: the kernel engine must be byte-identical to the
per-node oracle (``gossip_oracle.py``) at matched seeds, and
``GossipTrainer`` must build the kernels for every input it accepts.

Every assertion here is strict equality — not approx — because the two
engines promise the same IEEE-754 operations in the same order (see the
determinism notes in ``repro.kernels.ops``).  The sweep covers merge
strategies, churn, DP noise, quantization, subsampling, multi-push, and
uneven partitions across many seeds and node counts.  Both engines are
built by class name here.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import MLError
from repro.kernels.gossip_kernel import GossipKernelTrainer
from repro.ml.compression import CompressionConfig, CompressionKind
from repro.ml.datasets import (
    make_binary_classification,
    make_iot_activity,
    split_dirichlet,
    train_test_split,
)
from repro.ml.gossip import GossipConfig, GossipTrainer
from repro.ml.merge import MergeStrategy
from repro.ml.models import MLPClassifier, SoftmaxRegressionModel
from repro.net.churn import ChurnModel
from tests.kernels.gossip_oracle import GossipNodeTrainer

NUM_FEATURES = 6
NUM_CLASSES = 5


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(77)
    data = make_iot_activity(1600, rng)
    train, test = train_test_split(data, 0.25, rng)
    parts = split_dirichlet(train, 16, alpha=0.8, rng=rng, min_samples=8)
    return parts, test


def factory():
    return SoftmaxRegressionModel(NUM_FEATURES, NUM_CLASSES, l2=0.01)


ENGINES = {"objects": GossipNodeTrainer, "kernel": GossipKernelTrainer}


def build(engine, parts, test, config, seed=0, churn=None,
          model_factory=factory, uplinks=None):
    """One engine by class, with ``GossipTrainer``'s defaults."""
    return engine(
        [model_factory() for _ in parts], parts, test, config, seed=seed,
        churn=churn,
        uplinks=uplinks or [1_250_000.0] * len(parts),
    )


def run_both(problem, config_kwargs, seed, churn=None,
             duration=200.0, interval=100.0, uplinks=None,
             model_factory=factory):
    parts, test = problem
    results = {}
    for name, engine in ENGINES.items():
        trainer = build(engine, parts, test, GossipConfig(**config_kwargs),
                        seed=seed, churn=copy.deepcopy(churn),
                        uplinks=uplinks, model_factory=model_factory)
        outcome = trainer.run(duration, eval_interval_s=interval)
        results[name] = (trainer, outcome)
    return results


def assert_identical(results):
    obj_trainer, obj = results["objects"]
    ker_trainer, ker = results["kernel"]
    assert np.array_equal(obj_trainer.final_params(),
                          ker_trainer.final_params())
    assert np.array_equal(obj_trainer.final_ages(), ker_trainer.final_ages())
    assert obj.history == ker.history
    assert obj.per_node_scores == ker.per_node_scores
    assert obj.final_mean_score == ker.final_mean_score
    assert obj.final_online_score == ker.final_online_score
    assert obj.events_processed == ker.events_processed
    assert obj.wakes == ker.wakes
    assert obj.merges == ker.merges
    assert obj.messages_delivered == ker.messages_delivered
    assert obj.messages_dropped == ker.messages_dropped
    assert obj.bytes_delivered == ker.bytes_delivered
    assert obj.max_node_bytes == ker.max_node_bytes


class TestSeedSweep:
    @pytest.mark.parametrize("seed", list(range(20)))
    def test_default_config_across_seeds(self, problem, seed):
        assert_identical(run_both(problem, {}, seed))


class TestConfigMatrix:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_churn(self, problem, seed):
        churn = ChurnModel.from_availability(0.7, mean_online_s=40)
        assert_identical(run_both(problem, {}, seed, churn=churn))

    @pytest.mark.parametrize("seed", [1, 5])
    def test_dp_noise(self, problem, seed):
        assert_identical(run_both(problem, {"dp_noise_std": 0.05}, seed))

    @pytest.mark.parametrize("seed", [2, 9])
    def test_quantized_messages(self, problem, seed):
        compression = CompressionConfig(kind=CompressionKind.QUANTIZE,
                                        quantize_bits=8)
        assert_identical(
            run_both(problem, {"compression": compression}, seed))

    @pytest.mark.parametrize("seed", [0, 4])
    def test_multi_push_average_merge(self, problem, seed):
        assert_identical(run_both(
            problem,
            {"push_count": 2, "merge_strategy": MergeStrategy.AVERAGE},
            seed))

    @pytest.mark.parametrize("seed", [6])
    def test_sample_weighted_small_batch_with_churn(self, problem, seed):
        churn = ChurnModel.from_availability(0.85, mean_online_s=60)
        assert_identical(run_both(
            problem,
            {"merge_strategy": MergeStrategy.SAMPLE_WEIGHTED,
             "batch_size": 5},
            seed, churn=churn))

    def test_heterogeneous_uplinks(self, problem):
        """Per-node upload rates (one starved below a message per run)
        shift delivery times identically on both engines."""
        uplinks = [(1.0, 2_000.0, 1_250_000.0)[i % 3]
                   for i in range(len(problem[0]))]
        results = run_both(problem, {}, seed=7, uplinks=uplinks)
        assert_identical(results)
        uniform = run_both(problem, {}, seed=7)["kernel"][1]
        assert (results["kernel"][1].messages_delivered
                < uniform.messages_delivered)

    @pytest.mark.parametrize("seed", [8])
    def test_everything_at_once(self, problem, seed):
        churn = ChurnModel.from_availability(0.75, mean_online_s=50)
        compression = CompressionConfig(kind=CompressionKind.QUANTIZE,
                                        quantize_bits=12)
        assert_identical(run_both(
            problem,
            {"compression": compression, "dp_noise_std": 0.02,
             "push_count": 2},
            seed, churn=churn))


class TestPopulationSizes:
    @pytest.mark.parametrize("nodes", [2, 3, 8, 40])
    def test_node_counts(self, nodes):
        rng = np.random.default_rng(500 + nodes)
        data = make_iot_activity(max(400, nodes * 30), rng)
        train, test = train_test_split(data, 0.25, rng)
        parts = split_dirichlet(train, nodes, alpha=1.0, rng=rng,
                                min_samples=5)
        assert_identical(run_both((parts, test), {}, seed=nodes))

    def test_uneven_batch_takes(self, problem):
        """Partitions smaller than batch_size exercise the per-take-group
        kernel path."""
        assert_identical(run_both(problem, {"batch_size": 64}, seed=2))


class TestEdgeCases:
    def test_no_checkpoints_runs_nothing(self, problem):
        """eval_interval beyond duration means no checkpoints: both
        engines process zero events and keep the initial model."""
        results = run_both(problem, {}, seed=0,
                           duration=30.0, interval=100.0)
        assert_identical(results)
        _, outcome = results["kernel"]
        assert outcome.events_processed == 0
        assert outcome.wakes == 0

    def test_horizon_clips_trailing_events(self, problem):
        """Duration past the last checkpoint contributes no extra events."""
        clipped = run_both(problem, {}, seed=1,
                           duration=149.0, interval=50.0)
        exact = run_both(problem, {}, seed=1,
                         duration=100.0, interval=50.0)
        assert (clipped["kernel"][1].events_processed
                == exact["kernel"][1].events_processed)
        assert_identical(clipped)


def no_family_problem():
    """A binary problem for a model the kernels have no family for."""
    rng = np.random.default_rng(3)
    data = make_binary_classification(400, NUM_FEATURES, rng)
    train, test = train_test_split(data, 0.25, rng)
    parts = split_dirichlet(train, 4, alpha=1.0, rng=rng, min_samples=5)
    return parts, test


def no_family_factory():
    return MLPClassifier(NUM_FEATURES, 4, 2, l2=0.01,
                         init_rng=np.random.default_rng(0))


def subsample(fraction):
    return CompressionConfig(kind=CompressionKind.SUBSAMPLE,
                             subsample_fraction=fraction)


class TestSubsample:
    """Subsampled messages: one coordinate draw per push after the DP
    draw, merged over the sent coordinates only."""

    @pytest.mark.parametrize("fraction", [0.01, 0.25, 0.5])
    @pytest.mark.parametrize("strategy", list(MergeStrategy),
                             ids=lambda strategy: strategy.value)
    def test_fraction_by_merge_strategy(self, problem, fraction, strategy):
        assert_identical(run_both(
            problem,
            {"compression": subsample(fraction), "merge_strategy": strategy},
            seed=3, duration=100.0, interval=50.0))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_dp_noise_multi_push_churn(self, problem, seed):
        churn = ChurnModel.from_availability(0.7, mean_online_s=40)
        assert_identical(run_both(
            problem,
            {"compression": subsample(0.25), "dp_noise_std": 0.05,
             "push_count": 3},
            seed, churn=churn))

    def test_multi_push_sample_weighted(self, problem):
        assert_identical(run_both(
            problem,
            {"compression": subsample(0.5), "push_count": 3,
             "merge_strategy": MergeStrategy.SAMPLE_WEIGHTED},
            seed=5))

    def test_e15_subsample_row(self):
        """E15's "subsample 25%" row at its quick size."""
        sys.path.insert(0, str(Path(__file__).parents[2] / "benchmarks"))
        import bench_e15_compression as e15

        parts, test = e15.har_problem(12, 1500)
        config = e15.gossip_config(dict(e15.VARIANTS)["subsample 25%"])
        results = {}
        for name, engine in ENGINES.items():
            trainer = build(engine, parts, test, config, seed=e15.SEED,
                            model_factory=e15.factory)
            results[name] = (trainer, trainer.run(450.0, 450.0))
        assert_identical(results)
        assert results["kernel"][1].messages_delivered > 0


class TestKernelRejections:
    """Naming the kernel class for an input it cannot run is a typed
    error, and the selector that used to reach it is gone."""

    def test_unsupported_model_family(self):
        parts, test = no_family_problem()
        with pytest.raises(MLError):
            build(GossipKernelTrainer, parts, test, GossipConfig(),
                  model_factory=no_family_factory)

    def test_bad_engine_name_rejected(self):
        with pytest.raises(TypeError):
            GossipConfig(engine="kernel")


class CountingFactory:
    """A stateful factory: counts its calls."""

    def __init__(self, make):
        self.make = make
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.make()


class TestEngineSelection:
    """``GossipTrainer`` builds the kernels for every input it accepts,
    and each model exactly once."""

    @pytest.mark.parametrize("compression", [
        CompressionConfig(),
        CompressionConfig(kind=CompressionKind.QUANTIZE, quantize_bits=8),
    ], ids=["none", "quantize"])
    def test_softmax_runs_on_the_kernel(self, problem, compression):
        parts, test = problem
        counting = CountingFactory(factory)
        trainer = GossipTrainer(counting, parts, test,
                                GossipConfig(compression=compression))
        assert type(trainer) is GossipKernelTrainer
        assert counting.calls == len(parts)

    def test_subsample_runs_on_the_kernel(self, problem):
        parts, test = problem
        counting = CountingFactory(factory)
        trainer = GossipTrainer(counting, parts, test,
                                GossipConfig(compression=subsample(0.5)))
        assert type(trainer) is GossipKernelTrainer
        assert counting.calls == len(parts)
        assert trainer.run(100.0, 100.0).messages_delivered > 0

    def test_unvectorized_model_raises(self):
        parts, test = no_family_problem()
        with pytest.raises(MLError, match="no vectorized family"):
            GossipTrainer(no_family_factory, parts, test)

    def test_selected_kernel_matches_named_per_node_engine(self, problem):
        """The public constructor's result equals the reference engine
        byte for byte (same defaults as ``build``)."""
        parts, test = problem
        picked = GossipTrainer(factory, parts, test, seed=4)
        reference = build(GossipNodeTrainer, parts, test, GossipConfig(),
                          seed=4)
        assert_identical({
            "kernel": (picked, picked.run(200.0, 100.0)),
            "objects": (reference, reference.run(200.0, 100.0)),
        })
