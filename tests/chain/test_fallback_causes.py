"""Attribution tests: every serially-executed block gets a labeled cause.

One test per cause — recorded-set ``conflict``, lane ``exception``,
``validator_read``, and the predicted single-group collapses (``no_hints``
and ``predicted_conflict``) — each asserting both the attributed
``serial_cause`` and that attribution never changes execution results
(differential equality against a serial chain fed the same workload).
"""

from __future__ import annotations

import numpy as np

from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority
from repro.chain.contract import Contract, default_registry


class SneakySink(Contract):
    """Lies by omission: hints claim per-instance storage only, but
    ``drain`` also moves native value into a shared sink account."""

    SINK = "0x" + "d1" * 20

    @classmethod
    def access_hints(cls, method, args, sender):
        if method == "drain":
            return [("count",)]
        return None

    def setup(self) -> None:
        self.swrite(0, "count")

    def drain(self) -> int:
        count = self.sread("count") + 1
        self.swrite(count, "count")
        # Recorded-but-unpredicted cross-group write: ("acct", SINK).
        self.ctx.transfer(self.SINK, 1)
        return count


class Peeker(Contract):
    """Reads an arbitrary account's native balance (``validator_read``
    trigger when pointed at the block's validator)."""

    @classmethod
    def access_hints(cls, method, args, sender):
        if method == "peek":
            return [("last",)]
        return None

    def peek(self, who: str) -> int:
        seen = self.ctx.balance_of(who)
        self.swrite(seen, "last")
        return seen


class NoHints(Contract):
    """A contract that declares no access hints at all."""

    def setup(self) -> None:
        self.swrite(0, "count")

    def bump(self) -> int:
        count = self.sread("count") + 1
        self.swrite(count, "count")
        return count


def _build_chain(seed: int, wallets: int, **chain_kwargs):
    rng = np.random.default_rng(seed)
    consensus = ProofOfAuthority.with_generated_validators(1, rng)
    registry = default_registry()
    registry.register("sneaky", SneakySink)
    registry.register("peeker", Peeker)
    registry.register("nohints", NoHints)
    chain = Blockchain(consensus, registry=registry, **chain_kwargs)
    out = []
    for index in range(wallets):
        wallet = Wallet.generate(chain, rng, f"w{index}")
        chain.state.credit(wallet.address, 10**12)
        out.append(wallet)
    return chain, out


def _receipt_key(receipt):
    return (
        receipt.tx_hash, receipt.status, receipt.gas_used,
        [log.to_dict() for log in receipt.logs], receipt.return_value,
        receipt.error, receipt.contract_address, receipt.block_number,
    )


def _mine_both(seed: int, submit, wallets: int = 4, prepare=None):
    """Run ``submit`` on a parallel and a serial chain; assert equality.

    Returns the parallel chain's last BlockExecution-derived record (the
    observer's view) plus the chain itself, for cause assertions.
    """
    results = {}
    for mode in ("serial", "parallel"):
        chain, ws = _build_chain(seed, wallets, execution=mode)
        if prepare is not None:
            prepare(chain)
        hashes = submit(chain, ws)
        chain.mine_block()
        results[mode] = (chain, hashes)
    serial_chain, hashes = results["serial"]
    parallel_chain, parallel_hashes = results["parallel"]
    assert hashes == parallel_hashes
    assert (serial_chain.state.state_root()
            == parallel_chain.state.state_root())
    assert (serial_chain.head.header.tx_root
            == parallel_chain.head.header.tx_root)
    # Both engines journal and both seal the incremental root; the auditor
    # re-derived every header's root from scratch, fallback blocks included.
    for chain in (serial_chain, parallel_chain):
        assert chain.auditor.summary()["violation_count"] == 0
    for tx_hash in hashes:
        assert (_receipt_key(serial_chain.receipt_for(tx_hash))
                == _receipt_key(parallel_chain.receipt_for(tx_hash)))
    return parallel_chain


def _deploy_instances(wallets, name, value=0):
    """Each wallet deploys its own instance; returns the addresses."""
    addresses = []
    for wallet in wallets:
        chain = wallet.chain
        addresses.append(
            chain.vm.contract_address_for(wallet.address, 0)
        )
        wallet.deploy(name, value=value)
    chain.mine_block()
    return addresses


class TestFallbackCauses:
    def test_recorded_conflict_is_attributed(self):
        def submit(chain, wallets):
            addresses = _deploy_instances(wallets, "sneaky", value=10**6)
            return [w.call(addresses[i], "drain")
                    for i, w in enumerate(wallets)]

        chain = _mine_both(41, submit)
        record = chain.observer.records[-1]["execution"]
        assert record["fell_back"] is True
        assert record["serial_cause"] == "conflict"
        assert record["groups"] >= 2  # prediction really was optimistic

    def test_lane_exception_is_attributed(self):
        def submit(chain, wallets):
            real = chain.vm.apply_transaction

            def flaky(state, block, tx, **kwargs):
                if kwargs.get("fee_sink") is not None:  # a parallel lane
                    raise RuntimeError("lane blew up")
                return real(state, block, tx, **kwargs)

            chain.vm.apply_transaction = flaky
            return [w.transfer("0x" + f"{i + 1:02x}" * 20, 100)
                    for i, w in enumerate(wallets)]

        chain = _mine_both(42, submit)
        record = chain.observer.records[-1]["execution"]
        assert record["fell_back"] is True
        assert record["serial_cause"] == "exception"

    def test_validator_read_is_attributed(self):
        def submit(chain, wallets):
            addresses = _deploy_instances(wallets, "peeker")
            validator = chain.head.header.validator
            return [w.call(addresses[i], "peek", who=validator)
                    for i, w in enumerate(wallets)]

        chain = _mine_both(43, submit)
        record = chain.observer.records[-1]["execution"]
        assert record["fell_back"] is True
        assert record["serial_cause"] == "validator_read"

    def test_missing_hints_are_attributed(self):
        def submit(chain, wallets):
            deployer = wallets[0]
            address = chain.vm.contract_address_for(deployer.address, 0)
            deployer.deploy("nohints")
            chain.mine_block()
            return [w.call(address, "bump") for w in wallets]

        chain = _mine_both(44, submit)
        record = chain.observer.records[-1]["execution"]
        # Predicted collapse — never attempted, so not a fallback.
        assert record["fell_back"] is False
        assert record["serial_cause"] == "no_hints"
        assert record["groups"] == 1
        assert record["unhinted_txs"] == len(chain.head.transactions)

    def test_hinted_collapse_is_predicted_conflict(self):
        hot = "0x" + "77" * 20

        def submit(chain, wallets):
            return [w.transfer(hot, 5) for w in wallets]

        chain = _mine_both(45, submit)
        record = chain.observer.records[-1]["execution"]
        assert record["fell_back"] is False
        assert record["serial_cause"] == "predicted_conflict"
        assert f"acct:{hot}" in record["conflict_keys"]

    def test_small_block_is_attributed(self):
        def submit(chain, wallets):
            return [wallets[0].transfer("0x" + "88" * 20, 9)]

        chain = _mine_both(46, submit, wallets=1)
        record = chain.observer.records[-1]["execution"]
        assert record["serial_cause"] == "small_block"

    def test_parallel_block_has_no_cause_and_lane_map(self):
        def submit(chain, wallets):
            return [w.transfer("0x" + f"{i + 1:02x}" * 20, 100)
                    for i, w in enumerate(wallets)]

        chain = _mine_both(47, submit, wallets=8)
        record = chain.observer.records[-1]["execution"]
        assert record["serial_cause"] == ""
        assert record["fell_back"] is False
        total = sum(record["lane_txs"].values())
        assert total == len(chain.head.transactions)
