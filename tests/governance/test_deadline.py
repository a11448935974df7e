"""Tests for workload deadlines and expiry refunds."""

from __future__ import annotations

import pytest

from tests.conftest import make_funded_wallet


@pytest.fixture
def actors(chain, rng):
    consumer = make_funded_wallet(chain, rng, "consumer")
    stranger = make_funded_wallet(chain, rng, "stranger")
    executor = make_funded_wallet(chain, rng, "executor")
    return consumer, stranger, executor


def deploy(consumer, deadline_blocks, **overrides):
    params = dict(
        value=50_000, spec_hash="11" * 32, code_measurement="22" * 32,
        min_providers=1, min_samples=10, deadline_blocks=deadline_blocks,
    )
    params.update(overrides)
    return consumer.deploy_and_mine("workload", **params)


class TestExpiry:
    def test_expire_after_deadline_refunds(self, chain, actors):
        consumer, stranger, _ = actors
        workload = deploy(consumer, deadline_blocks=3)
        balance_after_deploy = consumer.chain.state.balance_of(consumer.address)
        for _ in range(3):
            chain.mine_block()
        receipt = stranger.call_and_mine(workload, "expire")
        assert receipt.status, receipt.error
        assert consumer.view(workload, "state") == "cancelled"
        assert consumer.chain.state.balance_of(consumer.address) == balance_after_deploy + 50_000

    def test_expire_before_deadline_reverts(self, chain, actors):
        consumer, stranger, _ = actors
        workload = deploy(consumer, deadline_blocks=100)
        receipt = stranger.call_and_mine(workload, "expire")
        assert not receipt.status
        assert "deadline has not passed" in receipt.error

    def test_no_deadline_never_expires(self, chain, actors):
        consumer, stranger, _ = actors
        workload = deploy(consumer, deadline_blocks=0)
        for _ in range(10):
            chain.mine_block()
        receipt = stranger.call_and_mine(workload, "expire")
        assert not receipt.status
        assert "no deadline" in receipt.error

    def test_expire_during_execution_allowed(self, chain, actors):
        consumer, stranger, executor = actors
        workload = deploy(consumer, deadline_blocks=3)
        executor.call_and_mine(workload, "register_executor",
                               claimed_measurement="22" * 32)
        executor.call_and_mine(workload, "submit_participation",
                               provider=stranger.address,
                               certificate_hash="c1", data_root="d1",
                               item_count=20)
        consumer.call_and_mine(workload, "start_execution")
        for _ in range(3):
            chain.mine_block()
        receipt = stranger.call_and_mine(workload, "expire")
        assert receipt.status
        assert consumer.view(workload, "state") == "cancelled"

    def test_completed_workload_cannot_expire(self, chain, actors):
        consumer, stranger, executor = actors
        workload = deploy(consumer, deadline_blocks=2,
                          required_confirmations=1)
        executor.call_and_mine(workload, "register_executor",
                               claimed_measurement="22" * 32)
        executor.call_and_mine(workload, "submit_participation",
                               provider=stranger.address,
                               certificate_hash="c1", data_root="d1",
                               item_count=20)
        consumer.call_and_mine(workload, "start_execution")
        executor.call_and_mine(
            workload, "submit_result", result_hash="rr" * 16,
            provider_weights_bps={stranger.address: 10_000},
        )
        for _ in range(5):
            chain.mine_block()
        receipt = stranger.call_and_mine(workload, "expire")
        assert not receipt.status
        assert "already settled" in receipt.error

    def test_expired_audit_is_clean(self, chain, actors):
        from repro.governance.audit import audit_workload

        consumer, stranger, _ = actors
        workload = deploy(consumer, deadline_blocks=1)
        chain.mine_block()
        stranger.call_and_mine(workload, "expire")
        report = audit_workload(chain, workload, auditor=consumer.address)
        assert report.clean, report.violations
        assert report.total_paid == 0
