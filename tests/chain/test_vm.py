"""Tests for the contract VM: dispatch, gas, revert, nested calls."""

from __future__ import annotations

import pytest

from repro.chain import contract as contract_mod
from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority
from repro.chain.contract import Contract, ContractRegistry
from repro.chain.tokens.erc20 import ERC20Token
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


class TestDispatchTable:
    """``Contract.external_methods`` is worked out once per class."""

    @pytest.mark.parametrize("base_first", [True, False])
    def test_subclass_method_is_external_on_the_subclass_only(
            self, base_first):
        class LoudCounter(Counter):
            def shout(self) -> str:
                return "!"

        classes = [Counter, LoudCounter]
        for cls in classes if base_first else classes[::-1]:
            cls.external_methods()  # warm, in either order
        assert "shout" in LoudCounter.external_methods()
        assert "shout" not in Counter.external_methods()
        assert LoudCounter.external_methods() == \
            Counter.external_methods() | {"shout"}
        assert isinstance(Counter.external_methods(), frozenset)

    @pytest.mark.parametrize("method", ["_require_state", "__init__",
                                        "swrite", "external_methods",
                                        "audit_invariants"])
    def test_private_and_framework_names_rejected_cold_and_warm(
            self, wallet, monkeypatch, method):
        monkeypatch.delattr(Counter, "_external_methods", raising=False)
        address = wallet.deploy_and_mine("counter")
        for _ in range(2):
            receipt = wallet.call_and_mine(address, method)
            assert not receipt.status
            assert receipt.error == \
                f"Counter has no external method {method!r}"

    def test_warm_erc20_block_calls_dir_zero_times(
            self, chain, funded_wallet, monkeypatch):
        token = funded_wallet.deploy_and_mine("erc20", initial_supply=100)
        monkeypatch.delattr(ERC20Token, "_external_methods", raising=False)
        listed = []

        def counting_dir(*args):
            listed.append(args)
            return dir(*args)

        monkeypatch.setattr(contract_mod, "dir", counting_dir, raising=False)
        for expected in ([(ERC20Token,)], []):  # cold block, warm block
            del listed[:]
            hashes = [funded_wallet.call(token, "transfer",
                                         recipient="0x" + "22" * 20,
                                         amount=1)
                      for _ in range(4)]
            chain.mine_block()
            assert all(chain.receipt_for(h).status for h in hashes)
            assert listed == expected


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
        balance_events_before = len(list(
            vm_chain.events(address, name="Incremented")))
        receipt = wallet.call_and_mine(address, "fail_after_write")
        assert receipt.logs == []
        assert len(list(vm_chain.events(address, name="Incremented"))) == \
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
