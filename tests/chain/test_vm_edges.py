"""Edge-case tests for the VM: call depth, static views, event costs."""

from __future__ import annotations

import pytest

from repro.chain.blockchain import Blockchain
from repro.chain.consensus import ProofOfAuthority
from repro.chain.contract import Contract, ContractRegistry
from repro.chain.vm import MAX_CALL_DEPTH
from tests.conftest import make_funded_wallet


class Recurser(Contract):
    """Calls itself to the requested depth."""

    def setup(self) -> None:
        self.swrite(0, "max_depth_seen")

    def recurse(self, depth: int) -> int:
        seen = self.sread("max_depth_seen")
        if depth > seen:
            self.swrite(depth, "max_depth_seen")
        if depth <= 0:
            return 0
        return 1 + self.ctx.call(self.address, "recurse", depth=depth - 1)

    def max_depth_seen(self) -> int:
        return self.sread("max_depth_seen")

    def emit_big(self, size: int) -> None:
        self.emit("Big", payload="x" * size)

    def sneaky(self) -> None:
        self.swrite(1, "mutated")


@pytest.fixture
def setup(rng):
    registry = ContractRegistry()
    registry.register("recurser", Recurser)
    chain = Blockchain(
        ProofOfAuthority.with_generated_validators(1, rng),
        registry=registry,
    )
    wallet = make_funded_wallet(chain, rng)
    address = wallet.deploy_and_mine("recurser")
    return chain, wallet, address


class TestCallDepth:
    def test_shallow_recursion_works(self, setup):
        chain, wallet, address = setup
        receipt = wallet.call_and_mine(address, "recurse", depth=10,
                                       gas_limit=10_000_000)
        assert receipt.status
        assert receipt.return_value == 10

    def test_depth_limit_enforced(self, setup):
        chain, wallet, address = setup
        receipt = wallet.call_and_mine(address, "recurse",
                                       depth=MAX_CALL_DEPTH + 5,
                                       gas_limit=25_000_000)
        assert not receipt.status
        assert "call depth" in receipt.error
        # The revert rolled back every nested write.
        assert wallet.view(address, "max_depth_seen") == 0


class TestEventGas:
    def test_bigger_events_cost_more(self, setup):
        chain, wallet, address = setup
        small = wallet.call_and_mine(address, "emit_big", size=10)
        big = wallet.call_and_mine(address, "emit_big", size=1000)
        assert big.gas_used > small.gas_used


class TestStaticViews:
    def test_static_view_leaves_no_trace(self, setup):
        chain, wallet, address = setup
        root_before = chain.state.state_root()
        with pytest.raises(Exception):
            wallet.view(address, "sneaky")
        assert chain.state.state_root() == root_before

    def test_view_of_missing_method(self, setup):
        chain, wallet, address = setup
        from repro.errors import ContractError

        with pytest.raises(ContractError):
            wallet.view(address, "nonexistent")
