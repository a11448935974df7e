"""End-to-end integration tests for the full Fig. 2 marketplace lifecycle."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import repro.core.actors as actors_module
from repro.core import (
    Marketplace,
    ModelSpec,
    RewardScheme,
    TrainingSpec,
    WorkloadSpec,
    minimum_reward_policy,
)
from repro.core.workload import enclave_entry_point
from repro.crypto import merkle as merkle_module
from repro.crypto.merkle import MerkleTree
from repro.errors import MarketplaceError, MatchingError
from repro.governance.certificates import issue_certificate
from repro.ml.datasets import make_iot_activity, split_dirichlet, train_test_split
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation
from repro.tee import enclave as enclave_module
from tests.core.test_workload_spec import _reference_payload


@pytest.fixture(scope="module")
def market_setup():
    """One marketplace with 6 providers, a consumer, and 2 executors."""
    rng = np.random.default_rng(100)
    data = make_iot_activity(1200, rng)
    train, validation = train_test_split(data, 0.25, rng)
    parts = split_dirichlet(train, 6, alpha=1.0, rng=rng, min_samples=20)

    market = Marketplace(seed=7)
    providers = []
    for index, part in enumerate(parts):
        annotation = SemanticAnnotation("heart_rate", {"rate_hz": 1.0})
        providers.append(
            market.add_provider(f"user{index}", part, annotation)
        )
    consumer = market.add_consumer("medlab", validation=validation)
    executors = [market.add_executor(f"exec{i}") for i in range(2)]
    return market, providers, consumer, executors


def har_spec(**overrides) -> WorkloadSpec:
    defaults = dict(
        workload_id="wl-int-1",
        requirement=ConceptRequirement("physiological"),
        model=ModelSpec(family="softmax", num_features=6, num_classes=5),
        training=TrainingSpec(steps=100, learning_rate=0.3, batch_size=32),
        reward_pool=1_000_000,
        min_providers=3,
        min_samples=200,
        required_confirmations=2,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestFullLifecycle:
    @pytest.fixture(scope="class")
    def report(self, market_setup):
        market, providers, consumer, executors = market_setup
        return market.run_workload(consumer, har_spec())

    def test_workload_completes(self, report):
        assert report.result_hash
        assert len(report.final_params) == 35  # (6+1)*5 softmax params

    def test_model_is_useful(self, report):
        assert report.consumer_score is not None
        assert report.consumer_score > 0.6

    def test_all_matching_providers_participate(self, report, market_setup):
        market, providers, *_ = market_setup
        assert len(report.participants) == len(providers)

    def test_rewards_fully_distributed(self, report):
        assert report.total_paid == report.spec.reward_pool

    def test_providers_paid_by_contribution(self, report, market_setup):
        market, providers, *_ = market_setup
        for provider in providers:
            assert report.payouts.get(provider.address, 0) > 0

    def test_executors_earn_infra_share(self, report, market_setup):
        market, _, _, executors = market_setup
        executor_total = sum(
            report.payouts.get(executor.address, 0)
            for executor in executors
        )
        expected = report.spec.reward_pool * \
            report.spec.infra_share_bps // 10_000
        assert executor_total == expected

    def test_weights_sum_to_bps(self, report):
        assert sum(report.weights_bps.values()) == 10_000

    def test_audit_is_clean(self, report):
        assert report.audit.clean, report.audit.violations
        assert report.audit.rewards_conserved

    def test_gas_accounted(self, report):
        assert report.gas_used > 0
        assert report.blocks_mined >= 4


class TestLifecycleVariants:
    def test_shapley_rewards(self, market_setup):
        market, providers, consumer, executors = market_setup
        report = market.run_workload(consumer, har_spec(
            workload_id="wl-shapley",
            reward_scheme=RewardScheme.SHAPLEY,
            training=TrainingSpec(steps=60, learning_rate=0.3),
            required_confirmations=1,
        ))
        assert report.audit.clean
        assert sum(report.weights_bps.values()) == 10_000

    def test_dp_training(self, market_setup):
        market, providers, consumer, executors = market_setup
        report = market.run_workload(consumer, har_spec(
            workload_id="wl-dp",
            dp_epsilon=4.0,
            training=TrainingSpec(steps=60, learning_rate=0.2),
            required_confirmations=1,
        ))
        assert report.achieved_epsilon is not None
        assert report.achieved_epsilon <= 4.2
        assert report.audit.clean

    def test_requirement_filters_providers(self, market_setup):
        market, providers, consumer, executors = market_setup
        # No provider annotated motion data, so matching fails.
        with pytest.raises(MatchingError):
            market.run_workload(consumer, har_spec(
                workload_id="wl-nomatch",
                requirement=ConceptRequirement("motion"),
            ))

    def test_policy_can_refuse(self, market_setup, rng):
        market, providers, consumer, executors = market_setup
        data = make_iot_activity(100, rng)
        picky = market.add_provider(
            "picky", data,
            SemanticAnnotation("heart_rate", {"rate_hz": 1.0}),
            policy=minimum_reward_policy(10**9),
        )
        report = market.run_workload(consumer, har_spec(
            workload_id="wl-policy",
        ))
        assert picky.address not in report.participants
        market.providers.remove(picky)

    def test_sequential_workloads_on_one_market(self, market_setup):
        market, providers, consumer, executors = market_setup
        first = market.run_workload(consumer, har_spec(workload_id="wl-a"))
        second = market.run_workload(consumer, har_spec(workload_id="wl-b"))
        assert first.workload_address != second.workload_address
        assert first.audit.clean and second.audit.clean

    def test_provider_rewards_accumulate(self, market_setup):
        market, providers, consumer, executors = market_setup
        before = providers[0].rewards_received
        market.run_workload(consumer, har_spec(workload_id="wl-acc"))
        assert providers[0].rewards_received > before


class TestDataPathDoesWorkOnce:
    """Rows are encoded once per dataset, the enclave measured once."""

    @staticmethod
    def _count_calls(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_payload_is_the_canonical_document(self, market_setup):
        _, providers, *_ = market_setup
        for provider in providers:
            assert provider.partition_payload() == _reference_payload(
                provider.dataset)

    def test_sessions_reuse_the_encoded_rows(self, market_setup, monkeypatch):
        market, providers, consumer, _ = market_setup
        encodings = self._count_calls(monkeypatch, actors_module,
                                      "serialize_partition")
        report = market.run_workload(consumer, har_spec(workload_id="wl-once"))
        assert report.audit.clean
        assert encodings == []  # add_provider already encoded every dataset

        provider = providers[0]
        original, before = provider.dataset, provider.partition_payload()
        provider.dataset = original.subset(np.arange(10))
        try:
            assert provider.partition_payload() != before
            assert len(provider.partition_rows()) == 10
            assert len(encodings) == 1
        finally:
            provider.dataset = original

    def test_sessions_reuse_the_merkle_tree(self, market_setup, monkeypatch):
        market, providers, consumer, _ = market_setup
        trees = [provider.partition_tree() for provider in providers]
        rows = [provider.partition_rows() for provider in providers]
        roots = [tree.root for tree in trees]  # hashed here if not before
        built = self._count_calls(monkeypatch, MerkleTree, "__init__")
        hashed = self._count_calls(monkeypatch, merkle_module, "_hash_leaf")
        for workload_id in ("wl-tree-1", "wl-tree-2"):
            report = market.run_workload(consumer,
                                         har_spec(workload_id=workload_id))
            assert len(report.participants) == len(providers)
        # Blocks build trees over transaction hashes; nobody builds one
        # over a provider's rows, and no row is hashed a second time.
        assert [args for args in built if args[1] in rows] == []
        assert not {args[0] for args in hashed} & {
            row for partition in rows for row in partition}
        assert all(provider.partition_tree() is tree
                   for provider, tree in zip(providers, trees))
        assert roots == [merkle_module.merkle_root(part) for part in rows]

        provider = providers[0]
        original = provider.dataset
        provider.dataset = original.subset(np.arange(10))
        try:
            rebound = provider.partition_tree()
            assert rebound is not trees[0] and len(rebound) == 10
            assert provider.partition_tree() is rebound
            assert [args[1] for args in built if args[0] is rebound] == [
                provider.partition_rows()]
            # The kept tree or one built afresh: the same certificate.
            issued = [issue_certificate(provider.wallet.key, "wl-tree", "0xe",
                                        tree, issued_at=1.0)
                      for tree in (rebound,
                                   MerkleTree(provider.partition_rows()))]
            assert issued[0] == issued[1]
            assert issued[0].data_root == merkle_module.merkle_root(
                provider.partition_rows())
        finally:
            provider.dataset = original
        assert provider.partition_tree() is not trees[0]  # rebound again

    def test_entry_point_source_read_once(self, market_setup, monkeypatch):
        """Source is not read at all any more; what is measured once per
        entry point is its code object."""
        market, _, consumer, _ = market_setup
        enclave_module._measure.cache_clear()
        enclave_module._measured_code.cache_clear()
        reads = self._count_calls(monkeypatch, inspect, "getsource")
        walks = self._count_calls(monkeypatch, enclave_module, "_describe")
        # Two workloads are two code units (name and version differ) over
        # one entry point, whose code object is walked for the first only.
        measurements = []
        for workload_id in ("wl-m1", "wl-m2"):
            spec = har_spec(workload_id=workload_id)
            report = market.run_workload(consumer, spec)
            onchain = consumer.wallet.view(report.workload_address,
                                           "code_measurement")
            assert onchain == market.executors[0].code_for(
                spec).measurement.hex()
            measurements.append(onchain)
        assert reads == []
        assert [args[0] for args in walks
                if callable(args[0])] == [enclave_entry_point]
        assert measurements[0] != measurements[1]


class TestOnboardingReadsReceipts:
    def test_refused_registration_leaves_nothing_off_chain(self, rng):
        market = Marketplace(seed=23)
        market.add_executor("e0")
        market.operator.call_and_mine(
            market.data_registry, "register_dataset", record_id="record-x",
            content_hash="00" * 32, annotation_hash="00" * 32, size_bytes=1)
        platforms = dict(market.attestation._platforms)
        with pytest.raises(MarketplaceError) as excinfo:
            market.add_provider("x", make_iot_activity(40, rng),
                                SemanticAnnotation("heart_rate", {}))
        assert "dataset 'record-x' already registered" in str(excinfo.value)
        assert market.providers == []
        assert len(market.catalog) == 0
        assert market.attestation._platforms == platforms


class TestActiveExecutors:
    def test_more_executors_than_providers(self):
        """Idle executors are reported separately from active ones."""
        rng = np.random.default_rng(400)
        data = make_iot_activity(300, rng)
        train, validation = train_test_split(data, 0.25, rng)
        parts = split_dirichlet(train, 2, 1.0, rng, min_samples=10)
        market = Marketplace(seed=3)
        for index, part in enumerate(parts):
            market.add_provider(f"p{index}", part,
                                SemanticAnnotation("heart_rate", {}))
        consumer = market.add_consumer("c", validation=validation)
        for index in range(4):
            market.add_executor(f"e{index}")
        report = market.run_workload(consumer, har_spec(
            workload_id="wl-idle", min_providers=2, min_samples=20,
            required_confirmations=1,
            training=TrainingSpec(steps=30, learning_rate=0.3),
        ))
        # Round-robin hands 2 providers to the first 2 of 4 executors;
        # the other two register (and earn infra share) but never execute.
        assert len(report.executors) == 4
        assert len(report.active_executors) == 2
        assert set(report.active_executors) < set(report.executors)
        assert report.audit.clean, report.audit.violations


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        def build_and_run(seed):
            rng = np.random.default_rng(200)
            data = make_iot_activity(600, rng)
            train, validation = train_test_split(data, 0.25, rng)
            parts = split_dirichlet(train, 4, 1.0, rng, min_samples=10)
            market = Marketplace(seed=seed)
            for index, part in enumerate(parts):
                market.add_provider(
                    f"p{index}", part,
                    SemanticAnnotation("heart_rate", {}),
                )
            consumer = market.add_consumer("c", validation=validation)
            market.add_executor("e0")
            spec = har_spec(workload_id="wl-det", min_providers=2,
                            min_samples=50, required_confirmations=1,
                            training=TrainingSpec(steps=40,
                                                  learning_rate=0.3))
            return market.run_workload(consumer, spec)

        a = build_and_run(9)
        b = build_and_run(9)
        assert a.result_hash == b.result_hash
        assert a.payouts == b.payouts
        assert a.gas_used == b.gas_used
