"""Block-entry batch signature verification on the mined path.

``mine_block`` checks every selected transaction's signature in one
``batch_verify`` call; these tests pin what the chain does with the
verdicts: valid batches are included whole, a single corrupted signature
is dropped with no receipt at the cost of one failed equation plus the
checks, receipts equal the per-item oracle's, a forged head defers its
sender's later nonces, a 512-transaction block with 32 forgeries gets the
oracle's verdicts, and two matched-seed chains in one process write equal
block records.  The last class counts what a 512-transaction block costs
in square roots and inversions mod n.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.chain import blockchain as blockchain_mod
from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority
from repro.chain.transaction import Transaction
from repro.crypto.ecdsa import N, Signature, _recover_nonce_point
from repro.errors import ChainError
from tests.crypto.rule import cost, counted

#: The telemetry pinned here follows a rule that counts signatures, not
#: the host's cores (tests/crypto/rule.py).
pytestmark = pytest.mark.usefixtures("equation_from_32")

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
        """One corrupted signature among 36: only it is dropped, at the
        cost of the one equation (none when the corrupted r names no nonce
        point) plus the checks of all 36."""
        chain, wallets = _build_chain(100 + seed, 36)
        bad_index = 5 * seed % len(wallets)
        hashes = []
        for i, w in enumerate(wallets):
            tx = Transaction(
                sender=w.address, nonce=0, to="0x" + "66" * 20,
                value=50 + i, gas_limit=50_000,
            ).sign(w.key)
            if i == bad_index:
                _corrupt(tx)
                resolves = _recover_nonce_point(tx.signature.r,
                                                tx.signature.v) is not None
            hashes.append(chain.submit(tx))
        with counted() as spent:
            block = chain.mine_block()
        assert cost(spent) == (int(resolves), len(wallets))
        assert len(block.transactions) == len(wallets) - 1
        assert chain.observer.records[-1]["verify"] == {
            "signatures": len(wallets), "invalid": 1}
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
        def per_item(items):
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


    def test_a_forgery_behind_a_failed_head_is_dropped_not_requeued(self):
        chain, [alice] = _build_chain(32, 1)
        txs = [Transaction(sender=alice.address, nonce=nonce,
                           to="0x" + "33" * 20, value=9).sign(alice.key)
               for nonce in range(3)]
        for tx in txs:
            chain.submit(_corrupt(tx) if tx.nonce != 1 else tx)
        block = chain.mine_block()
        # Only the genuine follower goes back to the pool.
        assert block.transactions == []
        assert list(chain.mempool) == [txs[1]]
        assert chain.observer.records[-1]["verify"] == {"signatures": 3,
                                                        "invalid": 2}
        assert chain.observer.records[-1]["execution"]["deferred"] == 1

    def test_512_from_64_with_32_forgeries_gets_the_oracles_verdicts(
            self, monkeypatch):
        # Senders 0..31 each forge one of their 8 transactions (nonce
        # i % 8): the one equation fails, and the checks of all 512 decide.
        chain, wallets = _build_chain(42, 64)
        forged = {wallet.address: index % 8
                  for index, wallet in enumerate(wallets[:32])}
        by_nonce = {}
        for wallet in wallets:
            for nonce in range(8):
                tx = Transaction(
                    sender=wallet.address, nonce=nonce, to="0x" + "88" * 20,
                    value=1 + nonce, gas_limit=50_000,
                ).sign(wallet.key)
                if forged.get(wallet.address) == nonce:
                    # A wrong s keeps the nonce point: the equation runs.
                    sig = tx.signature
                    tx.signature = Signature(sig.r, sig.s % (N // 2) + 1,
                                             sig.v)
                by_nonce[wallet.address, nonce] = tx
                chain.submit(tx)
        verdicts = []
        real = blockchain_mod.batch_verify

        def recorded(items):
            verdicts.append((real(items), [key.verify(message, signature)
                                           for key, message, signature
                                           in items]))
            return verdicts[-1][0]

        monkeypatch.setattr(blockchain_mod, "batch_verify", recorded)
        with counted() as spent:
            block = chain.mine_block()
        [(got, oracle)] = verdicts
        assert got == oracle and got.count(False) == 32
        assert cost(spent) == (1, 2 * 512)  # the oracle's 512 included
        later = sum(7 - nonce for nonce in forged.values())
        assert len(block.transactions) == 512 - 32 - later
        assert chain.observer.records[-1]["verify"] == {"signatures": 512,
                                                        "invalid": 32}
        assert chain.observer.records[-1]["execution"] == {
            "rejected": 0, "deferred": later}
        requeued = {(tx.sender, tx.nonce) for tx in chain.mempool}
        for (sender, nonce), tx in by_nonce.items():
            if sender not in forged or nonce < forged[sender]:
                assert chain.receipt_for(tx.tx_hash).status
                continue
            with pytest.raises(ChainError, match="no receipt"):
                chain.receipt_for(tx.tx_hash)
            assert ((sender, nonce) in requeued) == (nonce > forged[sender])


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
        assert json.loads(first[-1])["verify"] == {"signatures": 40,
                                                   "invalid": 0}
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

        def metered(items):
            before = dict(curve_ops)
            verdicts = real(items)
            # Inversions mod p follow table-cache state; test_bucket_msm
            # bounds them per call.
            spent.append({name: curve_ops[name] - before[name]
                          for name in ("sqrt", "inverse_mod_n")})
            return verdicts

        monkeypatch.setattr(blockchain_mod, "batch_verify", metered)
        block = chain.mine_block()
        assert len(block.transactions) == 512
        assert chain.observer.records[-1]["verify"] == {
            "signatures": 512, "invalid": 0}
        return spent

    def test_wallet_signed_block_takes_no_square_root_and_one_inversion(
            self, monkeypatch, curve_ops):
        assert self._mine_512(monkeypatch, curve_ops, 40, False) == [
            {"sqrt": 0, "inverse_mod_n": 1}]

    def test_block_without_hints_takes_512_square_roots_and_verifies(
            self, monkeypatch, curve_ops):
        assert self._mine_512(monkeypatch, curve_ops, 41, True) == [
            {"sqrt": 512, "inverse_mod_n": 1}]
