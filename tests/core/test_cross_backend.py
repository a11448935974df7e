"""Integration: heterogeneous storage backends in one marketplace run.

Section II-F: "different users may use different storage subsystems, based
on their particular needs" — the lifecycle must work with providers on
local encrypted hardware, a swarm, and a key-keeper cloud simultaneously.
Also covers gossip-level DP noise and chain-wide currency conservation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Marketplace, ModelSpec, TrainingSpec, WorkloadSpec
from repro.ml.datasets import (
    make_iot_activity,
    split_dirichlet,
    train_test_split,
)
from repro.storage.cloud import CloudStore
from repro.storage.swarm import SwarmStore
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation
from repro.utils.rng import derive_rng


class TestHeterogeneousBackends:
    @pytest.fixture(scope="class")
    def market_and_session(self):
        rng = np.random.default_rng(81)
        data = make_iot_activity(900, rng)
        train, validation = train_test_split(data, 0.25, rng)
        parts = split_dirichlet(train, 3, 1.0, rng, min_samples=20)

        market = Marketplace(seed=21)
        backends = [
            None,  # default: LocalEncryptedStore
            SwarmStore(8, derive_rng(21, "swarm"), replication=3,
                       chunk_size=1024),
            CloudStore(keepers=4, threshold=2, rng=derive_rng(21, "cloud")),
        ]
        for index, (part, store) in enumerate(zip(parts, backends)):
            market.add_provider(
                f"user{index}", part,
                SemanticAnnotation("heart_rate", {"rate_hz": 1.0}),
                store=store,
            )
        consumer = market.add_consumer("lab", validation=validation)
        market.add_executor("e0")
        spec = WorkloadSpec(
            workload_id="wl-multi-backend",
            requirement=ConceptRequirement("physiological"),
            model=ModelSpec(family="softmax", num_features=6,
                            num_classes=5),
            training=TrainingSpec(steps=60, learning_rate=0.3),
            reward_pool=300_000, min_providers=3, min_samples=100,
            required_confirmations=1,
        )
        return market, market.run_workload(consumer, spec)

    def test_all_backends_participate(self, market_and_session):
        market, session = market_and_session
        assert len(session.ctx.participants) == 3
        assert session.ctx.audit.clean

    def test_each_backend_holds_the_data(self, market_and_session):
        market, _ = market_and_session
        for provider in market.providers:
            data = provider.store.get(provider.stored_object_id,
                                      provider.address)
            assert data == provider.partition_payload()

    def test_swarm_backend_is_chunked(self, market_and_session):
        market, _ = market_and_session
        swarm_provider = market.providers[1]
        assert isinstance(swarm_provider.store, SwarmStore)
        holding = [n for n in swarm_provider.store.nodes if n.chunks]
        assert len(holding) >= 2

    def test_cloud_backend_hides_plaintext(self, market_and_session):
        market, _ = market_and_session
        cloud_provider = market.providers[2]
        assert isinstance(cloud_provider.store, CloudStore)
        visible = cloud_provider.store.cloud_visible_bytes(
            cloud_provider.stored_object_id
        )
        assert cloud_provider.partition_payload()[:32] not in visible

    def test_currency_conserved_across_lifecycle(self, market_and_session):
        """No token is created or destroyed by the whole marketplace run."""
        market, _ = market_and_session
        from repro.core.marketplace import DEFAULT_FUNDING

        # operator + 3 providers + 1 consumer + 1 executor were funded.
        minted = 6 * DEFAULT_FUNDING
        total = sum(market.chain.state.balances.values())
        assert total == minted


class TestGossipDP:
    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(82)
        data = make_iot_activity(1200, rng)
        train, test = train_test_split(data, 0.25, rng)
        parts = split_dirichlet(train, 12, 1.0, rng, min_samples=10)
        return parts, test

    def test_noised_gossip_still_learns(self, problem):
        from repro.ml.gossip import GossipConfig, GossipTrainer
        from repro.ml.models import SoftmaxRegressionModel

        parts, test = problem
        result = GossipTrainer(
            lambda: SoftmaxRegressionModel(6, 5), parts, test,
            GossipConfig(wake_interval_s=10, learning_rate=0.3,
                         dp_noise_std=0.05),
            seed=1,
        ).run(500, 500)
        assert result.final_mean_score > 0.5

    def test_heavy_noise_hurts(self, problem):
        from repro.ml.gossip import GossipConfig, GossipTrainer
        from repro.ml.models import SoftmaxRegressionModel

        parts, test = problem

        def run(noise):
            return GossipTrainer(
                lambda: SoftmaxRegressionModel(6, 5), parts, test,
                GossipConfig(wake_interval_s=10, learning_rate=0.3,
                             dp_noise_std=noise),
                seed=1,
            ).run(400, 400).final_mean_score

        assert run(2.0) < run(0.0)

    def test_negative_noise_rejected(self):
        from repro.errors import MLError
        from repro.ml.gossip import GossipConfig

        with pytest.raises(MLError):
            GossipConfig(dp_noise_std=-0.1)
