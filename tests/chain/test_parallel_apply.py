"""Differential tests: parallel execution must be byte-identical to serial.

Two chains are built from identical rng seeds (same validator and wallet
keys), fed identical transactions, and mined — one serially, one with the
parallel engine.  State roots and receipts must match exactly.  The suite
also covers block-entry batch signature verification, including bisection
isolating a single corrupted signature.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chain import blockchain as blockchain_mod
from repro.chain.audit import recompute_state_root
from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority
from repro.chain.contract import Contract, ContractRegistry, default_registry
from repro.chain.parallel import execute_parallel, predicted_paths
from repro.chain.transaction import Transaction
from repro.chain.vm import BlockContext
from repro.crypto.ecdsa import _VERIFY_CACHE, N, Signature
from repro.errors import ChainError
from repro.governance import register_governance_contracts


class Nested(Contract):
    """Test contract exercising deep storage paths and reverts."""

    def setup(self) -> None:
        self.swrite(0, "count")

    def bump(self, by: int = 1, fail: bool = False) -> int:
        value = self.sread("count") + by
        self.swrite(value, "count")
        self.swrite(value, "deep", "a", "b", "c")
        self.require(not fail, "boom")
        return value


def _build_chain(seed: int, wallets: int, **chain_kwargs):
    """A chain plus funded wallets, fully determined by ``seed``."""
    rng = np.random.default_rng(seed)
    consensus = ProofOfAuthority.with_generated_validators(1, rng)
    registry = default_registry()
    register_governance_contracts(registry)
    registry.register("nested", Nested)
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


def _run_differential(seed: int, submit, wallets: int = 8,
                      blocks: int = 1) -> None:
    """Submit identical workloads to a serial and a parallel chain."""
    results = {}
    for mode in ("serial", "parallel"):
        chain, ws = _build_chain(seed, wallets, execution=mode)
        hashes = submit(chain, ws)
        mined = [chain.mine_block() for _ in range(blocks)]
        results[mode] = (chain, hashes, mined)
    serial_chain, hashes, serial_blocks = results["serial"]
    parallel_chain, parallel_hashes, parallel_blocks = results["parallel"]
    assert hashes == parallel_hashes
    for left, right in zip(serial_blocks, parallel_blocks):
        assert left.header.state_root == right.header.state_root
        assert left.header.tx_root == right.header.tx_root
        assert left.header.gas_used == right.header.gas_used
    assert (serial_chain.state.state_root()
            == parallel_chain.state.state_root())
    for chain in (serial_chain, parallel_chain):
        # The incremental root against the from-scratch one, twice: the
        # auditor did it per block, this does it for the final state.
        assert chain.auditor.summary()["violation_count"] == 0
        assert chain.state.state_root() == recompute_state_root(chain.state)
    for tx_hash in hashes:
        left = serial_chain.receipt_for(tx_hash)
        right = parallel_chain.receipt_for(tx_hash)
        assert _receipt_key(left) == _receipt_key(right)


class TestParallelDifferential:
    def test_disjoint_transfers(self):
        def submit(chain, wallets):
            return [w.transfer("0x" + f"{i:02x}" * 20, 1000 + i)
                    for i, w in enumerate(wallets)]
        _run_differential(1, submit)

    def test_conflicting_transfers_same_recipient(self):
        hot = "0x" + "77" * 20

        def submit(chain, wallets):
            return [w.transfer(hot, 500) for w in wallets]
        _run_differential(2, submit)

    def test_sender_chains_keep_nonce_order(self):
        def submit(chain, wallets):
            hashes = []
            for i, w in enumerate(wallets[:4]):
                for _ in range(3):
                    hashes.append(w.transfer("0x" + f"{i:02x}" * 20, 7))
            return hashes
        _run_differential(3, submit)

    def test_disjoint_contract_instances_with_reverts(self):
        def submit(chain, wallets):
            hashes = []
            addresses = []
            for w in wallets:
                h = w.deploy("nested")
                hashes.append(h)
                addresses.append(
                    chain.vm.contract_address_for(w.address, 0)
                )
            for i, w in enumerate(wallets):
                hashes.append(w.call(addresses[i], "bump", by=i + 1,
                                     fail=(i % 3 == 0)))
            return hashes
        _run_differential(4, submit, blocks=2)

    def test_shared_contract_conflicts_fall_back_correctly(self):
        def submit(chain, wallets):
            deployer = wallets[0]
            address = chain.vm.contract_address_for(deployer.address, 0)
            hashes = [deployer.deploy("nested")]
            chain.mine_block()
            for w in wallets:
                hashes.append(w.call(address, "bump"))
            return hashes
        _run_differential(5, submit)

    def test_erc20_disjoint_transfers(self):
        def submit(chain, wallets):
            deployer = wallets[0]
            token = chain.vm.contract_address_for(deployer.address, 0)
            hashes = [deployer.deploy("erc20", initial_supply=10**9)]
            chain.mine_block()
            for w in wallets[1:]:
                hashes.append(
                    deployer.call(token, "transfer", recipient=w.address,
                                  amount=1000)
                )
            chain.mine_block()
            for w in wallets[1:]:
                hashes.append(
                    w.call(token, "transfer",
                           recipient="0x" + "99" * 20, amount=10)
                )
            return hashes
        _run_differential(6, submit)


class TestParallelEngineInternals:
    def test_disjoint_transfers_really_run_parallel(self):
        chain, wallets = _build_chain(7, 8, execution="parallel")
        txs = []
        for i, w in enumerate(wallets):
            tx = Transaction(
                sender=w.address, nonce=0, to="0x" + f"{i + 1:02x}" * 20,
                value=5,
            ).sign(w.key)
            txs.append(tx)
        block_ctx = BlockContext(number=1, timestamp=1.0,
                                 validator=chain.head.header.validator)
        result = execute_parallel(chain.vm, chain.state, block_ctx, txs)
        assert result.groups == len(txs)
        assert not result.fell_back
        assert len(result.included) == len(txs)

    def test_predicted_paths_for_transfer_and_deploy(self):
        chain, (alice,) = _build_chain(8, 1)
        transfer = Transaction(
            sender=alice.address, nonce=0, to="0x" + "11" * 20, value=1,
        ).sign(alice.key)
        paths = predicted_paths(chain.state, transfer)
        assert ("acct", alice.address) in paths
        assert ("acct", "0x" + "11" * 20) in paths
        deploy = Transaction(
            sender=alice.address, nonce=0, to=None, value=0,
            payload={"contract": "erc20", "args": {}},
        ).sign(alice.key)
        deploy_paths = predicted_paths(chain.state, deploy)
        address = chain.vm.contract_address_for(alice.address, 0)
        assert ("code", address) in deploy_paths
        assert ("store", address) in deploy_paths

    def test_validator_fee_totals_match_serial(self):
        roots = {}
        fees = {}
        for mode in ("serial", "parallel"):
            chain, wallets = _build_chain(9, 6, execution=mode)
            for i, w in enumerate(wallets):
                w.transfer("0x" + f"{i + 1:02x}" * 20, 123)
            chain.mine_block()
            validator = chain.head.header.validator
            fees[mode] = chain.state.balance_of(validator)
            roots[mode] = chain.state.state_root()
        assert fees["serial"] == fees["parallel"] > 0
        assert roots["serial"] == roots["parallel"]


def _corrupt(tx: Transaction) -> Transaction:
    """Flip the signature's r component, keeping everything else intact."""
    sig = tx.signature
    bad_r = sig.r + 1 if sig.r + 1 < N else sig.r - 1
    tx.signature = Signature(r=bad_r, s=sig.s, v=sig.v)
    return tx


class TestMinedModeBatchVerification:
    def test_all_valid_signatures_included(self):
        chain, wallets = _build_chain(20, 6)
        hashes = [w.transfer("0x" + "55" * 20, 100) for w in wallets]
        block = chain.mine_block()
        assert len(block.transactions) == len(wallets)
        for tx_hash in hashes:
            assert chain.receipt_for(tx_hash).status

    @pytest.mark.parametrize("seed", range(6))
    def test_bisection_isolates_single_corruption(self, seed):
        chain, wallets = _build_chain(100 + seed, 7)
        bad_index = seed % len(wallets)
        hashes = []
        for i, w in enumerate(wallets):
            tx = Transaction(
                sender=w.address, nonce=0, to="0x" + "66" * 20,
                value=50 + i,
            ).sign(w.key)
            if i == bad_index:
                _corrupt(tx)
            hashes.append(chain.submit(tx))
        block = chain.mine_block()
        assert len(block.transactions) == len(wallets) - 1
        assert chain.observer.records[-1]["verify"]["invalid"] == 1
        for i, tx_hash in enumerate(hashes):
            if i == bad_index:
                # Dropped and counted, never receipted: a receipt would
                # mark the genuine transaction of that hash "already mined".
                with pytest.raises(ChainError, match="no receipt"):
                    chain.receipt_for(tx_hash)
                assert chain.state.nonce_of(wallets[i].address) == 0
            else:
                assert chain.receipt_for(tx_hash).status

    def test_receipts_identical_to_per_item_oracle(self, monkeypatch):
        def per_item(items, stats=None):
            return [key.verify(message, signature)
                    for key, message, signature in items]

        outcomes = {}
        for verifier in ("batch", "per_item"):
            if verifier == "per_item":
                monkeypatch.setattr(blockchain_mod, "batch_verify", per_item)
            _VERIFY_CACHE.clear()  # matched seeds replay identical signatures
            chain, wallets = _build_chain(30, 5)
            hashes = [w.transfer("0x" + "44" * 20, 250) for w in wallets]
            forged = Transaction(
                sender=wallets[2].address, nonce=1, to="0x" + "44" * 20,
                value=1,
            ).sign(wallets[2].key)
            chain.submit(_corrupt(forged))
            chain.mine_block()
            assert forged.tx_hash not in chain._receipts
            outcomes[verifier] = (
                [_receipt_key(chain.receipt_for(h)) for h in hashes],
                chain.state.state_root(),
            )
        assert outcomes["batch"] == outcomes["per_item"]

    def test_bad_signature_defers_senders_later_nonces(self):
        chain, wallets = _build_chain(31, 2)
        alice, bob = wallets

        def head():
            return Transaction(
                sender=alice.address, nonce=0, to="0x" + "33" * 20, value=9,
            ).sign(alice.key)

        forged = _corrupt(head())
        chain.submit(forged)
        second_hash = alice.transfer("0x" + "33" * 20, 9)
        bob_hash = bob.transfer("0x" + "22" * 20, 9)
        block = chain.mine_block()
        # Bob mines; alice's corrupted head is dropped without a receipt
        # and her follower returns to the pool instead of dying on a nonce
        # check.
        assert len(block.transactions) == 1
        assert chain.receipt_for(bob_hash).status
        assert forged.tx_hash not in chain._receipts
        assert len(chain.pending) == 1
        assert chain.pending[0].tx_hash == second_hash
        # Resubmitting the identical content, genuinely signed, lets the
        # chain drain: the dropped forgery left nothing behind that could
        # make its hash "already mined".
        fixed = head()
        assert fixed.tx_hash == forged.tx_hash
        chain.submit(fixed)
        chain.mine_block()
        assert chain.receipt_for(fixed.tx_hash).status
        assert chain.receipt_for(second_hash).status

    def test_parallel_and_mined_compose(self):
        def submit(chain, wallets):
            return [w.transfer("0x" + f"{i + 1:02x}" * 20, 77)
                    for i, w in enumerate(wallets)]
        results = {}
        for mode in ("serial", "parallel"):
            chain, ws = _build_chain(32, 8, execution=mode)
            hashes = submit(chain, ws)
            chain.mine_block()
            results[mode] = (
                [_receipt_key(chain.receipt_for(h)) for h in hashes],
                chain.state.state_root(),
            )
        assert results["serial"] == results["parallel"]
