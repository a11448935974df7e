"""Integration tests: gossip learning and FedAvg on the simulated network."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MLError
from repro.ml.datasets import (
    make_iot_activity,
    split_dirichlet,
    train_test_split,
)
from repro.ml.federated import FederatedConfig, FederatedTrainer
from repro.ml.gossip import GossipConfig, GossipTrainer
from repro.ml.merge import MergeStrategy
from repro.ml.models import SoftmaxRegressionModel
from repro.net.churn import ChurnModel


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(42)
    data = make_iot_activity(1500, rng)
    train, test = train_test_split(data, 0.25, rng)
    parts = split_dirichlet(train, 12, alpha=1.0, rng=rng, min_samples=10)
    return parts, test


def factory():
    return SoftmaxRegressionModel(6, 5)


class TestGossip:
    def test_learning_improves_over_time(self, problem):
        parts, test = problem
        trainer = GossipTrainer(
            factory, parts, test,
            GossipConfig(wake_interval_s=10, learning_rate=0.3), seed=1,
        )
        result = trainer.run(600, eval_interval_s=200)
        early = result.history[0][1]
        assert result.final_mean_score > early
        assert result.final_mean_score > 0.5

    def test_deterministic_under_seed(self, problem):
        parts, test = problem
        a = GossipTrainer(factory, parts, test, seed=3).run(200, 100)
        b = GossipTrainer(factory, parts, test, seed=3).run(200, 100)
        assert a.final_mean_score == b.final_mean_score
        assert a.bytes_delivered == b.bytes_delivered

    def test_different_seeds_differ(self, problem):
        parts, test = problem
        a = GossipTrainer(factory, parts, test, seed=3).run(200, 100)
        b = GossipTrainer(factory, parts, test, seed=4).run(200, 100)
        assert a.per_node_scores != b.per_node_scores

    def test_traffic_is_recorded(self, problem):
        parts, test = problem
        result = GossipTrainer(factory, parts, test, seed=1).run(200, 100)
        assert result.messages_delivered > 0
        assert result.bytes_delivered > 0
        assert result.max_node_bytes > 0

    def test_no_central_bottleneck(self, problem):
        """No single gossip node carries a dominant share of traffic."""
        parts, test = problem
        result = GossipTrainer(factory, parts, test, seed=1).run(400, 200)
        assert result.max_node_bytes < 0.5 * result.bytes_delivered

    def test_churn_drops_messages_but_learning_survives(self, problem):
        parts, test = problem
        churn = ChurnModel.from_availability(0.6, mean_online_s=30)
        result = GossipTrainer(
            factory, parts, test,
            GossipConfig(wake_interval_s=10, learning_rate=0.3),
            seed=2, churn=churn,
        ).run(600, 300)
        assert result.messages_dropped > 0
        assert result.final_online_score > 0.4

    def test_merge_strategy_configurable(self, problem):
        parts, test = problem
        for strategy in MergeStrategy:
            result = GossipTrainer(
                factory, parts, test,
                GossipConfig(merge_strategy=strategy), seed=1,
            ).run(100, 100)
            assert 0.0 <= result.final_mean_score <= 1.0

    def test_needs_two_providers(self, problem):
        parts, test = problem
        with pytest.raises(MLError):
            GossipTrainer(factory, parts[:1], test, seed=1)

    def test_zero_batch_size_rejected(self):
        with pytest.raises(MLError, match="batch size"):
            GossipConfig(batch_size=0)

    def test_empty_partition_rejected(self, problem):
        parts, test = problem
        empty = type(parts[0])(features=parts[0].features[:0],
                               targets=parts[0].targets[:0])
        with pytest.raises(MLError, match="at least one sample"):
            GossipTrainer(factory, [*parts, empty], test, seed=1)


class TestFederated:
    def test_learning_improves_over_time(self, problem):
        parts, test = problem
        trainer = FederatedTrainer(
            factory, parts, test,
            FederatedConfig(round_interval_s=20, learning_rate=0.3), seed=1,
        )
        result = trainer.run(600, eval_interval_s=200)
        assert result.final_score > result.history[0][1] or \
            result.final_score > 0.6
        assert result.rounds_completed > 0

    def test_deterministic_under_seed(self, problem):
        parts, test = problem
        a = FederatedTrainer(factory, parts, test, seed=5).run(200, 100)
        b = FederatedTrainer(factory, parts, test, seed=5).run(200, 100)
        assert a.final_score == b.final_score
        assert a.server_bytes == b.server_bytes

    def test_all_traffic_through_server(self, problem):
        """The centralization signature: the server touches every byte."""
        parts, test = problem
        result = FederatedTrainer(factory, parts, test, seed=1).run(300, 150)
        # Every delivered byte had the server as an endpoint; the server may
        # additionally have bytes still in flight at simulation end.
        assert result.server_bytes >= result.bytes_delivered > 0

    def test_server_failure_stalls_rounds(self, problem):
        parts, test = problem
        churn = ChurnModel.from_availability(0.3, mean_online_s=20)
        with_server_churn = FederatedTrainer(
            factory, parts, test, seed=2, churn=churn,
            server_subject_to_churn=True,
        ).run(600, 300)
        without = FederatedTrainer(
            factory, parts, test, seed=2, churn=churn,
            server_subject_to_churn=False,
        ).run(600, 300)
        assert with_server_churn.rounds_completed < without.rounds_completed

    def test_client_fraction_validated(self):
        with pytest.raises(MLError):
            FederatedConfig(client_fraction=0.0)
        with pytest.raises(MLError):
            FederatedConfig(round_interval_s=-1)


class TestHeterogeneousUplinks:
    def test_per_node_uplink_rates(self, problem):
        parts, test = problem
        config = GossipConfig(wake_interval_s=10, learning_rate=0.3)

        def run(slow_rate):
            rates = [slow_rate if i % 2 else 12_500_000.0
                     for i in range(len(parts))]
            return GossipTrainer(factory, parts, test, config, seed=6,
                                 upload_bytes_per_s=rates).run(300, 300)

        result = run(125_000.0)
        assert result.final_mean_score > 0.4
        # The per-node rates are really applied: at 1 B/s a message takes
        # longer than the whole run to upload, so every odd node's pushes
        # stay in flight and that share of the traffic never lands.
        starved = run(1.0)
        assert 0 < starved.messages_delivered < result.messages_delivered

    def test_uplink_count_mismatch_rejected(self, problem):
        parts, test = problem
        with pytest.raises(MLError):
            GossipTrainer(factory, parts, test, seed=1,
                          upload_bytes_per_s=[1.0, 2.0])

    @pytest.mark.parametrize("rate", [0.0, -5.0, float("nan"),
                                      float("inf")])
    def test_rate_not_positive_and_finite_rejected(self, problem, rate):
        parts, test = problem
        with pytest.raises(MLError, match="positive and finite"):
            GossipTrainer(factory, parts, test, seed=1,
                          upload_bytes_per_s=rate)
        rates = [1_250_000.0] * len(parts)
        rates[-1] = rate
        with pytest.raises(MLError, match="positive and finite"):
            GossipTrainer(factory, parts, test, seed=1,
                          upload_bytes_per_s=rates)


class TestRunDurations:
    @pytest.mark.parametrize("trainer_cls", [GossipTrainer, FederatedTrainer],
                             ids=["gossip", "federated"])
    @pytest.mark.parametrize("duration,interval", [
        (100.0, 0.0), (100.0, -5.0), (100.0, float("nan")),
        (100.0, float("inf")), (0.0, 50.0), (-100.0, 50.0),
        (float("inf"), 50.0),
    ])
    def test_run_refuses_an_impossible_duration_or_interval(
            self, problem, trainer_cls, duration, interval):
        parts, test = problem
        trainer = trainer_cls(factory, parts, test, seed=1)
        with pytest.raises(MLError, match="finite and positive"):
            trainer.run(duration, eval_interval_s=interval)


NAN, INF = float("nan"), float("inf")


class TestImpossibleTrainingNumbers:
    """Refused at construction: each of these used to train silently to
    chance, die deep inside numpy, or run zero rounds."""

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("batch_size", -1),
        ("learning_rate", NAN), ("learning_rate", INF),
        ("learning_rate", 0.0), ("learning_rate", -0.1),
        ("round_interval_s", NAN), ("round_interval_s", INF),
    ])
    def test_federated_config(self, field, value):
        with pytest.raises(MLError):
            FederatedConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("wake_interval_s", NAN), ("wake_interval_s", INF),
        ("learning_rate", NAN), ("learning_rate", INF),
        ("learning_rate", 0.0), ("learning_rate", -0.1),
    ])
    def test_gossip_config(self, field, value):
        with pytest.raises(MLError, match="finite and positive"):
            GossipConfig(**{field: value})
