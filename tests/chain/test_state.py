"""Tests for the world state: balances, nonces, snapshots."""

from __future__ import annotations

import pytest

from repro.chain.contract import Contract
from repro.chain.state import WorldState
from repro.chain.vm import ExecutionContext, GasMeter
from repro.errors import InsufficientBalanceError, UnknownContractError
from tests.chain.test_journal_root import recompute_state_root

ALICE = "0x" + "aa" * 20
BOB = "0x" + "bb" * 20


@pytest.fixture
def state() -> WorldState:
    return WorldState()


class TestBalances:
    def test_default_zero(self, state):
        assert state.balance_of(ALICE) == 0

    def test_credit_debit(self, state):
        state.credit(ALICE, 100)
        state.debit(ALICE, 40)
        assert state.balance_of(ALICE) == 60

    def test_overdraw_rejected(self, state):
        state.credit(ALICE, 10)
        with pytest.raises(InsufficientBalanceError):
            state.debit(ALICE, 11)

    def test_negative_amounts_rejected(self, state):
        with pytest.raises(ValueError):
            state.credit(ALICE, -1)
        with pytest.raises(ValueError):
            state.debit(ALICE, -1)

    def test_transfer(self, state):
        state.credit(ALICE, 100)
        state.transfer(ALICE, BOB, 30)
        assert state.balance_of(ALICE) == 70
        assert state.balance_of(BOB) == 30


class TestNonces:
    def test_default_zero(self, state):
        assert state.nonce_of(ALICE) == 0

    def test_bump(self, state):
        state.bump_nonce(ALICE)
        state.bump_nonce(ALICE)
        assert state.nonce_of(ALICE) == 2


class TestContracts:
    def test_install_and_lookup(self, state):
        contract = Contract()
        state.install_contract(ALICE, contract)
        assert state.contract_at(ALICE) is contract
        assert contract.address == ALICE

    def test_unknown_address_rejected(self, state):
        with pytest.raises(UnknownContractError):
            state.contract_at(BOB)

    def test_double_install_rejected(self, state):
        state.install_contract(ALICE, Contract())
        with pytest.raises(UnknownContractError):
            state.install_contract(ALICE, Contract())

    def test_has_contract(self, state):
        assert not state.has_contract(ALICE)
        state.install_contract(ALICE, Contract())
        assert state.has_contract(ALICE)


class TestSnapshots:
    def test_balances_restored(self, state):
        state.credit(ALICE, 100)
        snap = state.snapshot()
        state.credit(ALICE, 900)
        state.restore(snap)
        assert state.balance_of(ALICE) == 100

    def test_nonces_restored(self, state):
        snap = state.snapshot()
        state.bump_nonce(ALICE)
        state.restore(snap)
        assert state.nonce_of(ALICE) == 0

    def test_contract_storage_restored(self, state):
        contract = Contract()
        state.install_contract(ALICE, contract)
        contract.storage["x"] = 1
        snap = state.snapshot()
        contract.storage["x"] = 2
        contract.storage["y"] = {"deep": [1, 2]}
        state.restore(snap)
        assert contract.storage == {"x": 1}

    def test_new_contracts_removed_on_restore(self, state):
        snap = state.snapshot()
        state.install_contract(ALICE, Contract())
        state.restore(snap)
        assert not state.has_contract(ALICE)

    def test_contract_identity_preserved(self, state):
        contract = Contract()
        state.install_contract(ALICE, contract)
        snap = state.snapshot()
        contract.storage["x"] = 5
        state.restore(snap)
        assert state.contract_at(ALICE) is contract

    def test_deep_storage_isolation(self, state):
        contract = Contract()
        state.install_contract(ALICE, contract)
        contract.storage["nested"] = {"list": [1]}
        snap = state.snapshot()
        contract.storage["nested"]["list"].append(2)
        state.restore(snap)
        assert contract.storage["nested"]["list"] == [1]


class TestStateRoot:
    def test_changes_with_balances(self, state):
        root_before = state.state_root()
        state.credit(ALICE, 1)
        assert state.state_root() != root_before

    def test_zero_balances_ignored(self, state):
        root_before = state.state_root()
        state.credit(ALICE, 0)
        assert state.state_root() == root_before

    def test_changes_with_contract_storage(self, state):
        # Storage is written through the VM's write path; that is what
        # tells the incremental root to re-encode the contract.
        contract = Contract()
        state.install_contract(ALICE, contract)
        root_before = state.state_root()
        ctx = ExecutionContext(
            vm=None, state=state, block=None, origin=ALICE, sender=ALICE,
            value=0, gas_meter=GasMeter(10**6), logs=[], static=False,
        )
        ctx.storage_write(contract, ("k",), "v")
        root_written = state.state_root()
        assert root_written != root_before
        ctx.storage_delete(contract, ("k",))
        assert state.state_root() == root_before

    def test_direct_storage_write_is_invisible_to_the_root(self, state):
        # The converse rule: anything else is tampering.  The root keeps
        # the stale encoding; the auditor's own root is what catches it
        # (tests/chain/test_audit_root.py).
        contract = Contract()
        state.install_contract(ALICE, contract)
        root_before = state.state_root()
        contract.storage["k"] = "v"
        assert state.state_root() == root_before
        assert recompute_state_root(state) != root_before
