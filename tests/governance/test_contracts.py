"""Tests for the governance contracts: registries and workload lifecycle."""

from __future__ import annotations

import pytest

from repro.chain.vm import VM
from repro.governance.contracts import BPS
from tests.conftest import make_funded_wallet


@pytest.fixture
def actors(chain, rng):
    consumer = make_funded_wallet(chain, rng, "consumer")
    exec1 = make_funded_wallet(chain, rng, "exec1")
    exec2 = make_funded_wallet(chain, rng, "exec2")
    prov_a = make_funded_wallet(chain, rng, "provA")
    prov_b = make_funded_wallet(chain, rng, "provB")
    return consumer, exec1, exec2, prov_a, prov_b


def deploy_workload(consumer, **overrides):
    params = dict(
        value=100_000, spec_hash="11" * 32, code_measurement="22" * 32,
        min_providers=2, min_samples=50, infra_share_bps=1000,
        required_confirmations=2,
    )
    params.update(overrides)
    return consumer.deploy_and_mine("workload", **params)


def register_executors(workload, *executors):
    for executor in executors:
        executor.call_and_mine(workload, "register_executor",
                               claimed_measurement="22" * 32)


class TestActorRegistry:
    def test_register_roles(self, chain, rng):
        wallet = make_funded_wallet(chain, rng)
        registry = wallet.deploy_and_mine("actor_registry")
        wallet.call_and_mine(registry, "register", role="provider")
        wallet.call_and_mine(registry, "register", role="executor")
        storage = chain.state.contracts[registry].storage
        assert storage["roles"][wallet.address] == ["executor", "provider"]
        assert storage["actor_count"] == 1

    def test_unknown_role_reverts(self, chain, rng):
        wallet = make_funded_wallet(chain, rng)
        registry = wallet.deploy_and_mine("actor_registry")
        receipt = wallet.call_and_mine(registry, "register", role="overlord")
        assert not receipt.status

    def test_registration_idempotent(self, chain, rng):
        wallet = make_funded_wallet(chain, rng)
        registry = wallet.deploy_and_mine("actor_registry")
        wallet.call_and_mine(registry, "register", role="provider")
        wallet.call_and_mine(registry, "register", role="provider")
        assert chain.state.contracts[registry].storage["actor_count"] == 1


class TestDataRegistry:
    def test_register_and_query(self, chain, rng):
        wallet = make_funded_wallet(chain, rng)
        registry = wallet.deploy_and_mine("data_registry")
        wallet.call_and_mine(registry, "register_dataset", record_id="d1",
                             content_hash="aa" * 32,
                             annotation_hash="bb" * 32, size_bytes=100)
        storage = chain.state.contracts[registry].storage
        assert storage["datasets"]["d1"]["owner"] == wallet.address
        assert storage["datasets"]["d1"]["deed_id"] == -1
        assert storage["dataset_count"] == 1

    def test_duplicate_record_reverts(self, chain, rng):
        wallet = make_funded_wallet(chain, rng)
        registry = wallet.deploy_and_mine("data_registry")
        wallet.call_and_mine(registry, "register_dataset", record_id="d1",
                             content_hash="aa" * 32,
                             annotation_hash="bb" * 32, size_bytes=1)
        receipt = wallet.call_and_mine(registry, "register_dataset",
                                       record_id="d1",
                                       content_hash="cc" * 32,
                                       annotation_hash="dd" * 32,
                                       size_bytes=1)
        assert not receipt.status

    def test_deed_minting(self, chain, rng):
        wallet = make_funded_wallet(chain, rng)
        predicted = VM.contract_address_for(
            wallet.address, chain.state.nonce_of(wallet.address) + 1
        )
        nft_tx = wallet.deploy("erc721", minter=predicted)
        chain.mine_block()
        nft = wallet.deployed_address(nft_tx)
        registry = wallet.deploy_and_mine("data_registry", deed_token=nft)
        assert registry == predicted
        receipt = wallet.call_and_mine(registry, "register_dataset",
                                       record_id="d1",
                                       content_hash="aa" * 32,
                                       annotation_hash="bb" * 32,
                                       size_bytes=1)
        assert receipt.return_value == 0
        assert wallet.view(nft, "owner_of", token_id=0) == wallet.address
        assert wallet.view(nft, "content_hash", token_id=0) == "aa" * 32


class TestWorkloadLifecycle:
    def test_happy_path(self, chain, actors):
        consumer, exec1, exec2, prov_a, prov_b = actors
        workload = deploy_workload(consumer)
        assert consumer.view(workload, "state") == "open"
        assert consumer.view(workload, "escrow") == 100_000

        register_executors(workload, exec1, exec2)
        assert len(chain.state.contracts[workload].storage["executors"]) == 2

        exec1.call_and_mine(workload, "submit_participation",
                            provider=prov_a.address, certificate_hash="c1",
                            data_root="d1", item_count=30)
        assert not consumer.view(workload, "conditions_met")
        exec2.call_and_mine(workload, "submit_participation",
                            provider=prov_b.address, certificate_hash="c2",
                            data_root="d2", item_count=40)
        assert consumer.view(workload, "conditions_met")

        consumer.call_and_mine(workload, "start_execution")
        assert consumer.view(workload, "state") == "executing"

        weights = {prov_a.address: 4000, prov_b.address: 6000}
        exec1.call_and_mine(workload, "submit_result",
                            result_hash="rr" * 16,
                            provider_weights_bps=weights)
        assert consumer.view(workload, "state") == "executing"
        balance_a = chain.state.balance_of(prov_a.address)
        balance_e1 = chain.state.balance_of(exec1.address)
        receipt = exec2.call_and_mine(workload, "submit_result",
                                      result_hash="rr" * 16,
                                      provider_weights_bps=weights)
        assert receipt.status
        assert consumer.view(workload, "state") == "complete"
        assert (chain.state.contracts[workload].storage["final_result_hash"]
                == "rr" * 16)
        # 90k provider pool: 40% / 60%; 10k infra split between 2 executors,
        # minus exec2's own gas which we exclude by measuring exec1.
        assert chain.state.balance_of(prov_a.address) - balance_a == 36_000
        assert chain.state.balance_of(exec1.address) - balance_e1 == 5_000

    def test_wrong_measurement_rejected(self, chain, actors):
        consumer, exec1, *_ = actors
        workload = deploy_workload(consumer)
        receipt = exec1.call_and_mine(workload, "register_executor",
                                      claimed_measurement="99" * 32)
        assert not receipt.status

    def test_double_registration_rejected(self, chain, actors):
        consumer, exec1, *_ = actors
        workload = deploy_workload(consumer)
        exec1.call_and_mine(workload, "register_executor",
                            claimed_measurement="22" * 32)
        receipt = exec1.call_and_mine(workload, "register_executor",
                                      claimed_measurement="22" * 32)
        assert not receipt.status

    def test_unregistered_executor_cannot_submit(self, chain, actors):
        consumer, exec1, _, prov_a, _ = actors
        workload = deploy_workload(consumer)
        receipt = exec1.call_and_mine(workload, "submit_participation",
                                      provider=prov_a.address,
                                      certificate_hash="c1", data_root="d1",
                                      item_count=30)
        assert not receipt.status

    def test_duplicate_certificate_rejected(self, chain, actors):
        consumer, exec1, exec2, prov_a, _ = actors
        workload = deploy_workload(consumer)
        register_executors(workload, exec1, exec2)
        exec1.call_and_mine(workload, "submit_participation",
                            provider=prov_a.address, certificate_hash="c1",
                            data_root="d1", item_count=30)
        receipt = exec2.call_and_mine(workload, "submit_participation",
                                      provider=prov_a.address,
                                      certificate_hash="c1", data_root="d1",
                                      item_count=30)
        assert not receipt.status

    def test_premature_start_rejected(self, chain, actors):
        consumer, exec1, *_ = actors
        workload = deploy_workload(consumer)
        receipt = consumer.call_and_mine(workload, "start_execution")
        assert not receipt.status
        assert "preconditions" in receipt.error

    def test_result_before_execution_rejected(self, chain, actors):
        consumer, exec1, _, prov_a, _ = actors
        workload = deploy_workload(consumer, min_providers=1,
                                   required_confirmations=1)
        register_executors(workload, exec1)
        exec1.call_and_mine(workload, "submit_participation",
                            provider=prov_a.address, certificate_hash="c1",
                            data_root="d1", item_count=100)
        receipt = exec1.call_and_mine(
            workload, "submit_result", result_hash="rr" * 16,
            provider_weights_bps={prov_a.address: BPS},
        )
        assert not receipt.status

    def test_weights_must_sum_to_bps(self, chain, actors):
        consumer, exec1, _, prov_a, _ = actors
        workload = deploy_workload(consumer, min_providers=1,
                                   required_confirmations=1)
        register_executors(workload, exec1)
        exec1.call_and_mine(workload, "submit_participation",
                            provider=prov_a.address, certificate_hash="c1",
                            data_root="d1", item_count=100)
        consumer.call_and_mine(workload, "start_execution")
        receipt = exec1.call_and_mine(
            workload, "submit_result", result_hash="rr" * 16,
            provider_weights_bps={prov_a.address: 5000},
        )
        assert not receipt.status

    def test_weights_for_stranger_rejected(self, chain, actors):
        consumer, exec1, _, prov_a, prov_b = actors
        workload = deploy_workload(consumer, min_providers=1,
                                   required_confirmations=1)
        register_executors(workload, exec1)
        exec1.call_and_mine(workload, "submit_participation",
                            provider=prov_a.address, certificate_hash="c1",
                            data_root="d1", item_count=100)
        consumer.call_and_mine(workload, "start_execution")
        receipt = exec1.call_and_mine(
            workload, "submit_result", result_hash="rr" * 16,
            provider_weights_bps={prov_b.address: BPS},
        )
        assert not receipt.status

    def test_disagreeing_results_do_not_finalize(self, chain, actors):
        consumer, exec1, exec2, prov_a, prov_b = actors
        workload = deploy_workload(consumer)
        register_executors(workload, exec1, exec2)
        exec1.call_and_mine(workload, "submit_participation",
                            provider=prov_a.address, certificate_hash="c1",
                            data_root="d1", item_count=60)
        exec2.call_and_mine(workload, "submit_participation",
                            provider=prov_b.address, certificate_hash="c2",
                            data_root="d2", item_count=60)
        consumer.call_and_mine(workload, "start_execution")
        weights = {prov_a.address: 5000, prov_b.address: 5000}
        exec1.call_and_mine(workload, "submit_result", result_hash="aa" * 16,
                            provider_weights_bps=weights)
        exec2.call_and_mine(workload, "submit_result", result_hash="bb" * 16,
                            provider_weights_bps=weights)
        assert consumer.view(workload, "state") == "executing"

    def test_double_vote_rejected(self, chain, actors):
        consumer, exec1, exec2, prov_a, _ = actors
        workload = deploy_workload(consumer, min_providers=1)
        register_executors(workload, exec1, exec2)
        exec1.call_and_mine(workload, "submit_participation",
                            provider=prov_a.address, certificate_hash="c1",
                            data_root="d1", item_count=60)
        consumer.call_and_mine(workload, "start_execution")
        weights = {prov_a.address: BPS}
        exec1.call_and_mine(workload, "submit_result", result_hash="aa" * 16,
                            provider_weights_bps=weights)
        receipt = exec1.call_and_mine(workload, "submit_result",
                                      result_hash="aa" * 16,
                                      provider_weights_bps=weights)
        assert not receipt.status

    def test_abort_refunds_consumer(self, chain, actors):
        consumer, *_ = actors
        balance_before = consumer.chain.state.balance_of(consumer.address)
        workload = deploy_workload(consumer)
        receipt = consumer.call_and_mine(workload, "abort")
        assert receipt.status
        assert consumer.view(workload, "state") == "cancelled"
        # Balance returns minus gas only.
        gas_spent = balance_before - consumer.chain.state.balance_of(consumer.address)
        assert gas_spent < 1_000_000  # escrow came back

    def test_only_consumer_aborts(self, chain, actors):
        consumer, exec1, *_ = actors
        workload = deploy_workload(consumer)
        receipt = exec1.call_and_mine(workload, "abort")
        assert not receipt.status

    def test_payout_conserves_escrow(self, chain, actors):
        consumer, exec1, exec2, prov_a, prov_b = actors
        # Odd pool + odd weights exercise the largest-remainder rounding.
        workload = deploy_workload(consumer, value=99_991,
                                   infra_share_bps=777)
        register_executors(workload, exec1, exec2)
        exec1.call_and_mine(workload, "submit_participation",
                            provider=prov_a.address, certificate_hash="c1",
                            data_root="d1", item_count=33)
        exec2.call_and_mine(workload, "submit_participation",
                            provider=prov_b.address, certificate_hash="c2",
                            data_root="d2", item_count=67)
        consumer.call_and_mine(workload, "start_execution")
        weights = {prov_a.address: 3333, prov_b.address: 6667}
        for executor in (exec1, exec2):
            executor.call_and_mine(workload, "submit_result",
                                   result_hash="rr" * 16,
                                   provider_weights_bps=weights)
        paid = sum(
            int(log.data["amount"])
            for _, log in chain.events(name="RewardPaid", address=workload)
        )
        assert paid == 99_991
        assert chain.state.balance_of(workload) == 0
