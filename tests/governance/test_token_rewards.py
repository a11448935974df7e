"""Tests for ERC-20-denominated workload rewards (paper Section III-A)."""

from __future__ import annotations

import pytest

from repro.chain.vm import VM
from tests.conftest import make_funded_wallet


@pytest.fixture
def token_setup(chain, rng):
    consumer = make_funded_wallet(chain, rng, "consumer")
    executor = make_funded_wallet(chain, rng, "exec")
    provider = make_funded_wallet(chain, rng, "prov")
    token = consumer.deploy_and_mine("erc20", name="Reward", symbol="RWD",
                                     initial_supply=1_000_000)
    return chain, consumer, executor, provider, token


def deploy_token_workload(chain, consumer, token, amount=50_000,
                          **overrides):
    # The workload address is deterministic; approve it before deploying.
    predicted = VM.contract_address_for(
        consumer.address, chain.state.nonce_of(consumer.address) + 1
    )
    consumer.call(token, "approve", spender=predicted, amount=amount)
    params = dict(
        spec_hash="11" * 32, code_measurement="22" * 32,
        min_providers=1, min_samples=10, infra_share_bps=1000,
        required_confirmations=1, reward_token=token,
        reward_amount=amount,
    )
    params.update(overrides)
    tx_hash = consumer.deploy("workload", **params)
    chain.mine_block()
    return consumer.deployed_address(tx_hash)


class TestTokenEscrow:
    def test_setup_pulls_tokens(self, token_setup):
        chain, consumer, executor, provider, token = token_setup
        workload = deploy_token_workload(chain, consumer, token)
        assert consumer.view(token, "balance_of", owner=workload) == 50_000
        assert consumer.view(token, "balance_of",
                             owner=consumer.address) == 950_000
        assert consumer.view(workload, "escrow") == 50_000

    def test_setup_without_approval_reverts(self, token_setup):
        chain, consumer, executor, provider, token = token_setup
        tx_hash = consumer.deploy(
            "workload", spec_hash="11" * 32, code_measurement="22" * 32,
            reward_token=token, reward_amount=1_000,
        )
        chain.mine_block()
        receipt = chain.receipt_for(tx_hash)
        assert not receipt.status
        assert "allowance exceeded" in receipt.error

    def test_native_and_token_mutually_exclusive(self, token_setup):
        chain, consumer, executor, provider, token = token_setup
        predicted = VM.contract_address_for(
            consumer.address, chain.state.nonce_of(consumer.address) + 1
        )
        consumer.call(token, "approve", spender=predicted, amount=100)
        tx_hash = consumer.deploy(
            "workload", value=100, spec_hash="11" * 32,
            code_measurement="22" * 32, reward_token=token,
            reward_amount=100,
        )
        chain.mine_block()
        assert not chain.receipt_for(tx_hash).status

    def test_zero_token_amount_rejected(self, token_setup):
        chain, consumer, executor, provider, token = token_setup
        tx_hash = consumer.deploy(
            "workload", spec_hash="11" * 32, code_measurement="22" * 32,
            reward_token=token, reward_amount=0,
        )
        chain.mine_block()
        assert not chain.receipt_for(tx_hash).status


class TestTokenPayout:
    def test_full_lifecycle_pays_in_tokens(self, token_setup):
        chain, consumer, executor, provider, token = token_setup
        workload = deploy_token_workload(chain, consumer, token)
        executor.call_and_mine(workload, "register_executor",
                               claimed_measurement="22" * 32)
        executor.call_and_mine(workload, "submit_participation",
                               provider=provider.address,
                               certificate_hash="c1", data_root="d1",
                               item_count=20)
        consumer.call_and_mine(workload, "start_execution")
        receipt = executor.call_and_mine(
            workload, "submit_result", result_hash="rr" * 16,
            provider_weights_bps={provider.address: 10_000},
        )
        assert receipt.status, receipt.error
        assert consumer.view(token, "balance_of",
                             owner=provider.address) == 45_000
        assert consumer.view(token, "balance_of",
                             owner=executor.address) == 5_000
        assert consumer.view(token, "balance_of", owner=workload) == 0

    def test_token_supply_conserved(self, token_setup):
        chain, consumer, executor, provider, token = token_setup
        workload = deploy_token_workload(chain, consumer, token)
        executor.call_and_mine(workload, "register_executor",
                               claimed_measurement="22" * 32)
        executor.call_and_mine(workload, "submit_participation",
                               provider=provider.address,
                               certificate_hash="c1", data_root="d1",
                               item_count=20)
        consumer.call_and_mine(workload, "start_execution")
        executor.call_and_mine(
            workload, "submit_result", result_hash="rr" * 16,
            provider_weights_bps={provider.address: 10_000},
        )
        holders = [consumer.address, executor.address, provider.address,
                   workload]
        total = sum(consumer.view(token, "balance_of", owner=h)
                    for h in holders)
        assert total == consumer.view(token, "total_supply") == 1_000_000

    def test_cancel_refunds_tokens(self, token_setup):
        chain, consumer, executor, provider, token = token_setup
        workload = deploy_token_workload(chain, consumer, token)
        consumer.call_and_mine(workload, "abort")
        assert consumer.view(token, "balance_of",
                             owner=consumer.address) == 1_000_000
        assert consumer.view(token, "balance_of", owner=workload) == 0

    def test_expire_refunds_tokens(self, token_setup):
        chain, consumer, executor, provider, token = token_setup
        workload = deploy_token_workload(chain, consumer, token,
                                         deadline_blocks=2)
        chain.mine_block()
        chain.mine_block()
        receipt = executor.call_and_mine(workload, "expire")
        assert receipt.status, receipt.error
        assert consumer.view(token, "balance_of",
                             owner=consumer.address) == 1_000_000

    def test_audit_clean_with_token_rewards(self, token_setup):
        from repro.governance.audit import audit_workload

        chain, consumer, executor, provider, token = token_setup
        workload = deploy_token_workload(chain, consumer, token)
        executor.call_and_mine(workload, "register_executor",
                               claimed_measurement="22" * 32)
        executor.call_and_mine(workload, "submit_participation",
                               provider=provider.address,
                               certificate_hash="c1", data_root="d1",
                               item_count=20)
        consumer.call_and_mine(workload, "start_execution")
        executor.call_and_mine(
            workload, "submit_result", result_hash="rr" * 16,
            provider_weights_bps={provider.address: 10_000},
        )
        report = audit_workload(chain, workload, auditor=consumer.address)
        assert report.clean, report.violations
        assert report.total_paid == 50_000