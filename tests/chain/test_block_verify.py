"""Block-entry batch signature verification on the mined path.

``mine_block`` checks every selected transaction's signature in one
``batch_verify`` call; these tests pin what the chain does with the
verdicts: valid batches are included whole, bisection isolates a single
corrupted signature (dropped, no receipt), receipts equal the per-item
oracle's, a forged head defers its sender's later nonces, and two
matched-seed chains in one process write equal block records.  The last
class counts what a 512-transaction block costs in square roots and
inversions mod n.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.chain import blockchain as blockchain_mod
from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority
from repro.chain.transaction import Transaction
from repro.crypto.ecdsa import N, Signature
from repro.errors import ChainError


def _build_chain(seed: int, wallets: int):
    """A chain plus funded wallets, fully determined by ``seed``."""
    rng = np.random.default_rng(seed)
    consensus = ProofOfAuthority.with_generated_validators(1, rng)
    chain = Blockchain(consensus)
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


def _corrupt(tx: Transaction) -> Transaction:
    """Flip the signature's r component, keeping everything else intact."""
    sig = tx.signature
    bad_r = sig.r + 1 if sig.r + 1 < N else sig.r - 1
    tx.signature = Signature(r=bad_r, s=sig.s, v=sig.v)
    return tx


class TestBlockVerify:
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
        assert len(chain.mempool) == 1
        assert list(chain.mempool)[0].tx_hash == second_hash
        # Resubmitting the identical content, genuinely signed, lets the
        # chain drain: the dropped forgery left nothing behind that could
        # make its hash "already mined".
        fixed = head()
        assert fixed.tx_hash == forged.tx_hash
        chain.submit(fixed)
        chain.mine_block()
        assert chain.receipt_for(fixed.tx_hash).status
        assert chain.receipt_for(second_hash).status


class TestMatchedSeedsInOneProcess:
    def test_two_chains_write_equal_block_records(self):
        # Nothing is cleared between the runs: the second chain's block
        # entry checks the same 40 signatures in one equation again, as a
        # fresh process would.
        def records():
            chain, wallets = _build_chain(40, 8)
            for _ in range(5):
                for wallet in wallets:
                    wallet.transfer("0x" + "77" * 20, 3, gas_limit=50_000)
            chain.mine_block()
            return [json.dumps(record, sort_keys=True)
                    for record in chain.observer.records]

        first = records()
        verify = json.loads(first[-1])["verify"]
        assert (verify["batched"], verify["subchecks"]) == (40, 1)
        assert records() == first


class TestWideBlockCost:
    """What a block's verification does *not* compute (``curve_ops`` counts
    every square root and inversion mod n inside ``batch_verify`` only, so
    the validator signing its seal stays out of the tally)."""

    @staticmethod
    def _mine_512(monkeypatch, curve_ops, seed, strip_hints):
        chain, wallets = _build_chain(seed, 64)
        for wallet in wallets:
            for nonce in range(8):
                tx = Transaction(
                    sender=wallet.address, nonce=nonce, to="0x" + "77" * 20,
                    value=1 + nonce, gas_limit=50_000,
                ).sign(wallet.key)
                if strip_hints:  # as a signature parsed off the wire
                    sig = tx.signature
                    tx.signature = Signature(sig.r, sig.s, sig.v)
                chain.submit(tx)
        spent = []
        real = blockchain_mod.batch_verify

        def metered(items, stats=None):
            before = dict(curve_ops)
            verdicts = real(items, stats)
            # Inversions mod p follow table-cache state; test_bucket_msm
            # bounds them per call.
            spent.append({name: curve_ops[name] - before[name]
                          for name in ("sqrt", "inverse_mod_n")})
            return verdicts

        monkeypatch.setattr(blockchain_mod, "batch_verify", metered)
        block = chain.mine_block()
        assert len(block.transactions) == 512
        assert chain.observer.records[-1]["verify"] == {
            "batched": 512, "singles": 0, "subchecks": 1, "depth": 0,
            "invalid": 0,
        }
        return spent

    def test_wallet_signed_block_takes_no_square_root_and_one_inversion(
            self, monkeypatch, curve_ops):
        assert self._mine_512(monkeypatch, curve_ops, 40, False) == [
            {"sqrt": 0, "inverse_mod_n": 1}]

    def test_block_without_hints_takes_512_square_roots_and_verifies(
            self, monkeypatch, curve_ops):
        assert self._mine_512(monkeypatch, curve_ops, 41, True) == [
            {"sqrt": 512, "inverse_mod_n": 1}]
