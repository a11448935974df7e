"""Tests for the contract VM: dispatch, gas, revert, nested calls."""

from __future__ import annotations

import pytest

from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority
from repro.chain.contract import Contract, ContractRegistry
from repro.chain.transaction import Transaction
from repro.errors import DuplicateTransactionError
from tests.conftest import make_funded_wallet


class Counter(Contract):
    """Test contract: a counter with guarded and nested operations."""

    def setup(self, start: int = 0) -> None:
        self.swrite(start, "count")

    def increment(self, by: int = 1) -> int:
        self.require(by > 0, "increment must be positive")
        value = self.sread("count") + by
        self.swrite(value, "count")
        self.emit("Incremented", by=by, value=value)
        return value

    def current(self) -> int:
        return self.sread("count")

    def fail_after_write(self) -> None:
        self.swrite(999, "count")
        self.require(False, "deliberate revert")

    def burn_gas(self, loops: int) -> None:
        for _ in range(loops):
            self.ctx.charge(5_000)

    def call_other(self, target: str) -> int:
        return self.ctx.call(target, "increment", by=5)

    def pay_out(self, recipient: str, amount: int) -> None:
        self.ctx.transfer(recipient, amount)


@pytest.fixture
def vm_chain(rng):
    registry = ContractRegistry()
    registry.register("counter", Counter)
    consensus = ProofOfAuthority.with_generated_validators(1, rng)
    return Blockchain(consensus, registry=registry)


@pytest.fixture
def wallet(vm_chain, rng) -> Wallet:
    return make_funded_wallet(vm_chain, rng)


class TestDeployment:
    def test_deploy_and_call(self, wallet):
        address = wallet.deploy_and_mine("counter", start=10)
        assert wallet.view(address, "current") == 10

    def test_setup_args_passed(self, wallet):
        address = wallet.deploy_and_mine("counter", start=42)
        assert wallet.view(address, "current") == 42

    def test_unknown_contract_name_reverts(self, wallet, vm_chain):
        tx_hash = wallet.deploy("nonexistent")
        vm_chain.mine_block()
        receipt = vm_chain.receipt_for(tx_hash)
        assert not receipt.status

    def test_deterministic_address(self, wallet, vm_chain):
        from repro.chain.vm import VM

        nonce = vm_chain.state.nonce_of(wallet.address)
        predicted = VM.contract_address_for(wallet.address, nonce)
        actual = wallet.deploy_and_mine("counter")
        assert actual == predicted


class TestCalls:
    def test_method_call_mutates_state(self, wallet):
        address = wallet.deploy_and_mine("counter")
        wallet.call_and_mine(address, "increment", by=3)
        assert wallet.view(address, "current") == 3

    def test_return_value_in_receipt(self, wallet):
        address = wallet.deploy_and_mine("counter")
        receipt = wallet.call_and_mine(address, "increment", by=7)
        assert receipt.return_value == 7

    def test_unknown_method_reverts(self, wallet):
        address = wallet.deploy_and_mine("counter")
        receipt = wallet.call_and_mine(address, "no_such_method")
        assert not receipt.status
        assert "no external method" in receipt.error

    def test_private_method_not_callable(self, wallet):
        address = wallet.deploy_and_mine("counter")
        receipt = wallet.call_and_mine(address, "_require_state")
        assert not receipt.status

    def test_framework_method_not_callable(self, wallet):
        address = wallet.deploy_and_mine("counter")
        receipt = wallet.call_and_mine(address, "swrite")
        assert not receipt.status

    def test_bad_arguments_revert(self, wallet):
        address = wallet.deploy_and_mine("counter")
        receipt = wallet.call_and_mine(address, "increment", wrong_arg=1)
        assert not receipt.status
        assert "bad call arguments" in receipt.error


class TestRevert:
    def test_revert_rolls_back_writes(self, wallet):
        address = wallet.deploy_and_mine("counter", start=1)
        receipt = wallet.call_and_mine(address, "fail_after_write")
        assert not receipt.status
        assert "deliberate revert" in receipt.error
        assert wallet.view(address, "current") == 1

    def test_revert_still_charges_gas(self, wallet):
        address = wallet.deploy_and_mine("counter")
        receipt = wallet.call_and_mine(address, "fail_after_write")
        assert receipt.gas_used > 0

    def test_revert_drops_logs(self, wallet, vm_chain):
        address = wallet.deploy_and_mine("counter")
        balance_events_before = len(list(vm_chain.events(name="Incremented")))
        receipt = wallet.call_and_mine(address, "fail_after_write")
        assert receipt.logs == []
        assert len(list(vm_chain.events(name="Incremented"))) == \
            balance_events_before

    def test_require_guard(self, wallet):
        address = wallet.deploy_and_mine("counter")
        receipt = wallet.call_and_mine(address, "increment", by=-1)
        assert not receipt.status
        assert "increment must be positive" in receipt.error


class TestGas:
    def test_out_of_gas_reverts(self, wallet):
        address = wallet.deploy_and_mine("counter")
        receipt = wallet.call_and_mine(address, "burn_gas", loops=10**6,
                                       gas_limit=100_000)
        assert not receipt.status
        assert receipt.gas_used == 100_000

    def test_gas_refund(self, wallet, vm_chain):
        address = wallet.deploy_and_mine("counter")
        balance_before = wallet.chain.state.balance_of(wallet.address)
        receipt = wallet.call_and_mine(address, "increment", by=1,
                                       gas_limit=500_000)
        spent = balance_before - wallet.chain.state.balance_of(wallet.address)
        assert spent == receipt.gas_used  # gas price 1: fee == gas used

    def test_validator_earns_fees(self, wallet, vm_chain):
        validator = vm_chain.consensus.proposer_for(1).address
        address = wallet.deploy_and_mine("counter")
        before = vm_chain.state.balance_of(validator)
        receipt = wallet.call_and_mine(address, "increment", by=1)
        # The same validator seals every block in a 1-validator set.
        assert vm_chain.state.balance_of(validator) == \
            before + receipt.gas_used


class TestCrossContract:
    def test_nested_call(self, wallet):
        target = wallet.deploy_and_mine("counter")
        caller = wallet.deploy_and_mine("counter")
        receipt = wallet.call_and_mine(caller, "call_other", target=target)
        assert receipt.return_value == 5
        assert wallet.view(target, "current") == 5


class TestValueTransfer:
    def test_plain_transfer(self, wallet, vm_chain):
        recipient = "0x" + "cc" * 20
        wallet.transfer(recipient, 12345)
        vm_chain.mine_block()
        assert vm_chain.state.balance_of(recipient) == 12345

    def test_transfer_with_payload_to_eoa_reverts(self, wallet, vm_chain, rng):
        tx = Transaction(
            sender=wallet.address,
            nonce=vm_chain.state.nonce_of(wallet.address),
            to="0x" + "dd" * 20, value=1,
            payload={"method": "x", "args": {}},
        ).sign(wallet.key)
        vm_chain.submit(tx)
        vm_chain.mine_block()
        assert not vm_chain.receipt_for(tx.tx_hash).status

    def test_contract_pays_out(self, wallet, vm_chain):
        address = wallet.deploy_and_mine("counter")
        wallet.transfer(address, 1000)
        vm_chain.mine_block()
        recipient = "0x" + "ee" * 20
        receipt = wallet.call_and_mine(address, "pay_out",
                                       recipient=recipient, amount=400)
        assert receipt.status
        assert vm_chain.state.balance_of(recipient) == 400
        assert vm_chain.state.balance_of(address) == 600

    def test_contract_overdraw_reverts(self, wallet, vm_chain):
        address = wallet.deploy_and_mine("counter")
        receipt = wallet.call_and_mine(address, "pay_out",
                                       recipient="0x" + "ee" * 20,
                                       amount=400)
        assert not receipt.status

    def test_value_call_credits_contract(self, wallet, vm_chain):
        address = wallet.deploy_and_mine("counter")
        wallet.call_and_mine(address, "increment", by=1, value=777)
        assert vm_chain.state.balance_of(address) == 777


class TestNonceHandling:
    def test_replay_rejected(self, wallet, vm_chain):
        recipient = "0x" + "cc" * 20
        tx = Transaction(
            sender=wallet.address,
            nonce=vm_chain.state.nonce_of(wallet.address),
            to=recipient, value=10,
        ).sign(wallet.key)
        vm_chain.submit(tx)
        vm_chain.mine_block()
        # The identical transaction (same hash) is refused at intake — it
        # must never reach the pool, let alone clobber the mined receipt.
        replay = Transaction(
            sender=wallet.address, nonce=tx.nonce, to=recipient, value=10,
        ).sign(wallet.key)
        assert replay.tx_hash == tx.tx_hash
        with pytest.raises(DuplicateTransactionError):
            vm_chain.submit(replay)
        vm_chain.mine_block()
        assert vm_chain.state.balance_of(recipient) == 10
        assert vm_chain.receipt_for(tx.tx_hash).status
