"""Tests for the trustless audit procedures."""

from __future__ import annotations

import pytest

from repro.chain.block import Block
from repro.errors import InvalidBlockError
from repro.governance.audit import audit_workload
from repro.governance.contracts import BPS
from tests.conftest import make_funded_wallet


def _complete_a_workload(chain, rng):
    consumer = make_funded_wallet(chain, rng, "consumer")
    executor = make_funded_wallet(chain, rng, "exec")
    provider = make_funded_wallet(chain, rng, "prov")
    workload = consumer.deploy_and_mine(
        "workload", value=50_000, spec_hash="11" * 32,
        code_measurement="22" * 32, min_providers=1, min_samples=10,
        infra_share_bps=1000, required_confirmations=1,
    )
    executor.call_and_mine(workload, "register_executor",
                           claimed_measurement="22" * 32)
    executor.call_and_mine(workload, "submit_participation",
                           provider=provider.address, certificate_hash="c1",
                           data_root="d1", item_count=20)
    consumer.call_and_mine(workload, "start_execution")
    executor.call_and_mine(workload, "submit_result", result_hash="rr" * 16,
                           provider_weights_bps={provider.address: BPS})
    return chain, consumer, workload


@pytest.fixture
def completed_workload(chain, rng):
    return _complete_a_workload(chain, rng)


class TestCleanAudit:
    def test_completed_workload_audits_clean(self, completed_workload):
        chain, consumer, workload = completed_workload
        report = audit_workload(chain, workload, auditor=consumer.address)
        assert report.clean
        assert report.chain_valid
        assert report.lifecycle_valid
        assert report.rewards_conserved
        assert report.total_paid == 50_000
        assert report.escrow == 50_000
        assert report.providers_paid == 1
        assert report.executors_paid == 1
        assert report.certificates == 1

    def test_cancelled_workload_audits_clean(self, chain, rng):
        consumer = make_funded_wallet(chain, rng, "consumer")
        workload = consumer.deploy_and_mine(
            "workload", value=10_000, spec_hash="11" * 32,
            code_measurement="22" * 32,
        )
        consumer.call_and_mine(workload, "abort")
        report = audit_workload(chain, workload, auditor=consumer.address)
        assert report.clean
        assert report.total_paid == 0


class TestTamperDetection:
    def test_rewritten_history_detected(self, completed_workload):
        chain, consumer, workload = completed_workload
        # An attacker rewrites a mined block body.
        for block in chain.blocks:
            if block.transactions:
                block.transactions.pop()
                break
        report = audit_workload(chain, workload, auditor=consumer.address)
        assert not report.chain_valid
        assert not report.clean

    def test_unknown_address_reported(self, completed_workload):
        chain, consumer, workload = completed_workload
        report = audit_workload(chain, "0x" + "77" * 20,
                                auditor=consumer.address)
        assert not report.clean
        assert any("WorkloadCreated" in v for v in report.violations)


class TestAuditedSegment:
    """A workload audit verifies from the block of the workload's first
    event to the head (and that block's link to its parent), not from
    genesis: ``chain.verify_chain()`` is the whole-chain check."""

    @pytest.fixture
    def late_workload(self, chain, rng):
        """A completed workload whose first event sits at block 36 of 40."""
        while chain.height < 35:
            chain.mine_block()
        return _complete_a_workload(chain, rng)

    def test_structure_is_checked_from_the_first_event_block(
            self, late_workload, monkeypatch):
        chain, consumer, workload = late_workload
        first = next(chain.events(address=workload))[0]
        assert (first, chain.height) == (36, 40)
        checked = []
        real_structure = Block.validate_structure

        def counting_structure(block):
            checked.append(block.header.number)
            return real_structure(block)

        monkeypatch.setattr(Block, "validate_structure", counting_structure)
        report = audit_workload(chain, workload, auditor=consumer.address)
        assert report.clean and report.chain_valid
        assert checked == list(range(first, chain.height + 1))
        # No events, no segment: an unknown address is audited from genesis.
        del checked[:]
        audit_workload(chain, "0x" + "77" * 20, auditor=consumer.address)
        assert checked == list(range(chain.height + 1))

    @pytest.mark.parametrize("number", [36, 38, 40])
    def test_tamper_inside_the_segment_is_reported(self, late_workload,
                                                   number):
        chain, consumer, workload = late_workload
        chain.blocks[number].transactions.pop()
        report = audit_workload(chain, workload, auditor=consumer.address)
        assert not report.chain_valid and not report.clean

    def test_a_replaced_parent_of_the_segment_is_reported(self,
                                                          late_workload):
        chain, consumer, workload = late_workload
        chain.blocks[35].header.timestamp -= 0.5
        report = audit_workload(chain, workload, auditor=consumer.address)
        assert not report.chain_valid
        assert "block 36 has a broken parent link" in report.violations[0]

    def test_tamper_before_the_segment_is_left_to_verify_chain(
            self, late_workload):
        chain, consumer, workload = late_workload
        chain.blocks[20].header.gas_used += 1
        assert audit_workload(chain, workload,
                              auditor=consumer.address).chain_valid
        with pytest.raises(InvalidBlockError):
            chain.verify_chain()
