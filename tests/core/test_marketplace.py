"""End-to-end integration tests for the full Fig. 2 marketplace lifecycle."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import repro.core.actors as actors_module
from repro.core import (
    Marketplace,
    ModelSpec,
    TrainingSpec,
    WorkloadSpec,
)
from repro.core.workload import enclave_entry_point
from repro.crypto import ecdsa
from repro.crypto import merkle as merkle_module
from repro.crypto.merkle import MerkleTree
from repro.errors import MarketplaceError, MatchingError
from repro.governance.certificates import issue_certificate
from repro.ml.datasets import (
    Dataset,
    make_iot_activity,
    split_dirichlet,
    split_iid,
    train_test_split,
)
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation
from repro.tee import enclave as enclave_module
from tests.core.test_workload_spec import _reference_payload
from tests.tee.counting_key import CountingKey


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
    def session(self, market_setup):
        market, providers, consumer, executors = market_setup
        return market.run_workload(consumer, har_spec())

    def test_workload_completes(self, session):
        assert session.ctx.result_hash
        assert len(session.ctx.result_vector) == 35  # (6+1)*5 softmax params

    def test_model_is_useful(self, session, market_setup):
        consumer = market_setup[2]
        score = consumer.evaluate_result(session.kind.spec,
                                         session.ctx.result_vector)
        assert score is not None
        assert score > 0.6

    def test_all_matching_providers_participate(self, session, market_setup):
        market, providers, *_ = market_setup
        assert len(session.ctx.participants) == len(providers)

    def test_rewards_fully_distributed(self, session):
        assert sum(session.ctx.payouts.values()) == \
            session.kind.spec.reward_pool

    def test_providers_paid_by_contribution(self, session, market_setup):
        market, providers, *_ = market_setup
        for provider in providers:
            assert session.ctx.payouts.get(provider.address, 0) > 0

    def test_executors_earn_infra_share(self, session, market_setup):
        market, _, _, executors = market_setup
        executor_total = sum(
            session.ctx.payouts.get(executor.address, 0)
            for executor in executors
        )
        spec = session.kind.spec
        expected = spec.reward_pool * spec.infra_share_bps // 10_000
        assert executor_total == expected

    def test_weights_sum_to_bps(self, session):
        assert sum(session.ctx.weights_bps.values()) == 10_000

    def test_audit_is_clean(self, session):
        assert session.ctx.audit.clean, session.ctx.audit.violations
        assert session.ctx.audit.rewards_conserved

    def test_gas_accounted(self, session):
        assert session.gas_used > 0
        assert session.blocks_mined >= 4


class TestLifecycleVariants:
    def test_dp_training(self, market_setup):
        market, providers, consumer, executors = market_setup
        ctx = market.run_workload(consumer, har_spec(
            workload_id="wl-dp",
            dp_epsilon=4.0,
            training=TrainingSpec(steps=60, learning_rate=0.2),
            required_confirmations=1,
        )).ctx
        assert ctx.extra["achieved_epsilon"] is not None
        assert ctx.extra["achieved_epsilon"] <= 4.2
        assert ctx.audit.clean

    def test_requirement_filters_providers(self, market_setup):
        market, providers, consumer, executors = market_setup
        # No provider annotated motion data, so matching fails.
        session = market.run_workload(consumer, har_spec(
            workload_id="wl-nomatch",
            requirement=ConceptRequirement("motion"),
        ))
        assert isinstance(session.failure, MatchingError)

    def test_policy_can_refuse(self, market_setup, rng):
        market, providers, consumer, executors = market_setup
        data = make_iot_activity(100, rng)
        picky = market.add_provider(
            "picky", data,
            SemanticAnnotation("heart_rate", {"rate_hz": 1.0}),
            policy=lambda spec, matching_records: False,
        )
        session = market.run_workload(consumer, har_spec(
            workload_id="wl-policy",
        ))
        assert picky.address not in [
            provider.address for provider in session.ctx.participants]
        market.providers.remove(picky)

    def test_sequential_workloads_on_one_market(self, market_setup):
        market, providers, consumer, executors = market_setup
        first = market.run_workload(consumer, har_spec(workload_id="wl-a"))
        second = market.run_workload(consumer, har_spec(workload_id="wl-b"))
        assert first.ctx.workload_address != second.ctx.workload_address
        assert first.ctx.audit.clean and second.ctx.audit.clean

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
        session = market.run_workload(consumer,
                                      har_spec(workload_id="wl-once"))
        assert session.ctx.audit.clean
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
            session = market.run_workload(consumer,
                                          har_spec(workload_id=workload_id))
            assert len(session.ctx.participants) == len(providers)
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
        enclave_module._measured_code.cache_clear()
        reads = self._count_calls(monkeypatch, inspect, "getsource")
        walks = self._count_calls(monkeypatch, enclave_module, "_describe")
        # Two workloads are two code units (name and version differ) over
        # one entry point, whose code object is walked for the first only.
        measurements = []
        for workload_id in ("wl-m1", "wl-m2"):
            spec = har_spec(workload_id=workload_id)
            session = market.run_workload(consumer, spec)
            onchain = consumer.wallet.view(session.ctx.workload_address,
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
        assert market.catalog._records == {}
        assert market.attestation._platforms == platforms

    def test_unencodable_dataset_sends_nothing(self, rng):
        """A dataset that cannot be encoded is refused before its provider
        sends ``register``, so the next onboarding block mines no orphan
        provider registration."""
        market = Marketplace(seed=23)
        data = make_iot_activity(40, rng)
        features = data.features.copy()
        features[3, 2] = np.nan
        with pytest.raises(ValueError):
            market.add_provider("x", Dataset(features, data.targets),
                                SemanticAnnotation("heart_rate", {}))
        market.add_consumer("c")
        roles = [log.data["role"] for _, log in
                 market.chain.events(market.actor_registry, "ActorRegistered")]
        assert roles == ["consumer"]
        assert market.providers == []
        assert len(market.chain.mempool) == 0


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
        ctx = market.run_workload(consumer, har_spec(
            workload_id="wl-idle", min_providers=2, min_samples=20,
            required_confirmations=1,
            training=TrainingSpec(steps=30, learning_rate=0.3),
        )).ctx
        # Round-robin hands 2 providers to the first 2 of 4 executors;
        # the other two register (and earn infra share) but never execute.
        executors = {executor.address for executor in ctx.executors}
        active = {executor.address for executor in ctx.active_executors}
        assert len(ctx.executors) == 4
        assert len(ctx.active_executors) == 2
        assert active < executors
        assert ctx.audit.clean, ctx.audit.violations


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
        assert a.ctx.result_hash == b.ctx.result_hash
        assert a.ctx.payouts == b.ctx.payouts
        assert a.gas_used == b.gas_used


class TestQuoteChecks:
    def test_the_service_checks_each_executors_quote_once(self,
                                                          monkeypatch):
        # 16 providers routed to 4 executors (the ``ml_wide`` shape) ask
        # the one attestation service about 4 quotes: it checks each
        # signature once, not once per provider.  Quotes are P-256 and the
        # channel is HPKE: no secp256k1 key agreement, and no secp256k1
        # signature over a quote payload.
        rng = np.random.default_rng(3)
        market = Marketplace(seed=3)
        for index, part in enumerate(split_iid(
                make_iot_activity(16 * 40, rng), 16, rng)):
            market.add_provider(f"u{index}", part,
                                SemanticAnnotation("heart_rate", {}))
        consumer = market.add_consumer("c")
        for index in range(4):
            market.add_executor(f"e{index}")
        # Count on the service's side: it provisioned the plain keys.
        keys = {}
        for executor in market.executors:
            platform = executor.platform
            keys[platform.platform_id] = CountingKey(platform.attestation_key)
            platform.attestation_key = keys[platform.platform_id]
            market.attestation._platforms[platform.platform_id] = (
                keys[platform.platform_id].public_key())
        agreements, signed = [], []
        monkeypatch.setattr(ecdsa, "shared_secret",
                            lambda *args: agreements.append(args))
        real_sign = ecdsa.PrivateKey.sign
        monkeypatch.setattr(ecdsa.PrivateKey, "sign",
                            lambda key, message: signed.append(message)
                            or real_sign(key, message))
        session = market.run_workload(consumer, har_spec(
            workload_id="wl-quotes", min_providers=16, min_samples=50,
            training=TrainingSpec(steps=10, learning_rate=0.3)))
        assert session.outcome == "settled"
        checked = [payload for key in keys.values() for payload in key.checked]
        assert len(checked) == 4
        assert all(b'"report_data"' in payload for payload in checked)
        assert sum(len(key.signed) for key in keys.values()) == 4
        assert agreements == []
        assert signed and not any(b'"report_data"' in message
                                  for message in signed)
