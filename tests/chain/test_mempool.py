"""Tests for the mempool: admission, ordering, RBF, and the two bugfixes.

The regression tests at the bottom reproduce the flat-pending-list bugs this
subsystem replaced: a duplicate submission clobbering a mined success receipt,
and a gas-deferred transaction orphaning (and dropping) the same sender's
later nonces.  ``TestForgedIntake`` covers the intake rule that lets
signatures be checked at block entry only: a forged transaction never
executes, never gets a receipt, and never evicts or shadows a genuine one.
"""

from __future__ import annotations

import pytest

from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority
from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction
from repro.crypto.ecdsa import N, Signature
from repro.errors import (
    ChainError,
    DuplicateTransactionError,
    InvalidTransactionError,
    UnderpricedReplacementError,
)
from tests.conftest import make_funded_wallet


def _tx(wallet: Wallet, nonce: int, gas_price: int = 1,
        gas_limit: int = 2_000_000, value: int = 1) -> Transaction:
    return Transaction(
        sender=wallet.address, nonce=nonce, to="0x" + "ee" * 20,
        value=value, gas_limit=gas_limit, gas_price=gas_price,
    ).sign(wallet.key)


def _forge(tx: Transaction) -> Transaction:
    """Corrupt ``r`` in place: same fields and hash, invalid signature."""
    sig = tx.signature
    tx.signature = Signature(r=sig.r % (N - 1) + 1, s=sig.s, v=sig.v)
    return tx


@pytest.fixture
def two_wallets(chain, rng):
    return (make_funded_wallet(chain, rng, "a"),
            make_funded_wallet(chain, rng, "b"))


class TestAdmission:
    def test_duplicate_hash_rejected(self, funded_wallet):
        pool = Mempool()
        tx = _tx(funded_wallet, 0)
        pool.add(tx, 0)
        with pytest.raises(DuplicateTransactionError):
            pool.add(tx, 0)
        assert len(pool) == 1

    def test_stale_nonce_rejected(self, funded_wallet):
        pool = Mempool()
        with pytest.raises(InvalidTransactionError, match="stale nonce"):
            pool.add(_tx(funded_wallet, 3), 5)

    def test_nonce_gaps_are_admitted_but_not_selected(self, funded_wallet):
        pool = Mempool()
        pool.add(_tx(funded_wallet, 2), 0)
        selected = pool.select(lambda sender: 0, 10**9)
        assert selected == []
        assert len(pool) == 1

    def test_replacement_by_fee(self, funded_wallet):
        pool = Mempool()
        original = _tx(funded_wallet, 0, gas_price=10)
        pool.add(original, 0)
        # A 5% bump is under the 10% floor.
        with pytest.raises(UnderpricedReplacementError):
            pool.add(_tx(funded_wallet, 0, gas_price=10, value=2), 0)
        replacement = _tx(funded_wallet, 0, gas_price=11, value=2)
        pool.add(replacement, 0)
        assert len(pool) == 1
        assert original.tx_hash not in pool
        assert replacement.tx_hash in pool
        [selected] = pool.select(lambda sender: 0, 10**9)
        assert selected.tx_hash == replacement.tx_hash

    def test_contains_and_pending_count(self, two_wallets):
        alice, bob = two_wallets
        pool = Mempool()
        for nonce in range(3):
            pool.add(_tx(alice, nonce), 0)
        pool.add(_tx(bob, 0), 0)
        assert [tx.sender for tx in pool].count(alice.address) == 3
        assert [tx.sender for tx in pool].count(bob.address) == 1
        assert len(pool) == 4


class TestSelection:
    def test_fee_priority_across_senders(self, two_wallets):
        alice, bob = two_wallets
        pool = Mempool()
        pool.add(_tx(alice, 0, gas_price=1), 0)
        pool.add(_tx(bob, 0, gas_price=7), 0)
        selected = pool.select(lambda sender: 0, 10**9)
        assert [tx.sender for tx in selected] == [bob.address, alice.address]

    def test_arrival_breaks_fee_ties(self, two_wallets):
        alice, bob = two_wallets
        pool = Mempool()
        pool.add(_tx(bob, 0, gas_price=3), 0)
        pool.add(_tx(alice, 0, gas_price=3), 0)
        selected = pool.select(lambda sender: 0, 10**9)
        assert [tx.sender for tx in selected] == [bob.address, alice.address]

    def test_sender_chain_stays_nonce_ordered(self, two_wallets):
        alice, bob = two_wallets
        pool = Mempool()
        # Alice's later nonce pays more than her head: nonce order must win
        # within the sender even though fees differ.
        pool.add(_tx(alice, 0, gas_price=1), 0)
        pool.add(_tx(alice, 1, gas_price=50), 0)
        pool.add(_tx(bob, 0, gas_price=5), 0)
        selected = pool.select(lambda sender: 0, 10**9)
        order = [(tx.sender, tx.nonce) for tx in selected]
        assert order == [
            (bob.address, 0), (alice.address, 0), (alice.address, 1)
        ]

    def test_gas_packing_defers_whole_chain(self, two_wallets):
        alice, bob = two_wallets
        pool = Mempool()
        pool.add(_tx(alice, 0, gas_price=9, gas_limit=2_000_000), 0)
        pool.add(_tx(alice, 1, gas_price=9, gas_limit=2_000_000), 0)
        pool.add(_tx(bob, 0, gas_price=1, gas_limit=1_000_000), 0)
        # Alice's nonce 0 fits, her nonce 1 does not — her chain defers
        # *whole* and cheap bob fills the block instead of alice's nonce-1
        # jumping the gap.
        selected = pool.select(lambda sender: 0, 3_900_000)
        order = [(tx.sender, tx.nonce) for tx in selected]
        assert order == [(alice.address, 0), (bob.address, 0)]
        assert [(tx.sender, tx.nonce) for tx in pool] == [(alice.address, 1)]

    def test_selection_removes_from_pool(self, funded_wallet):
        pool = Mempool()
        tx = _tx(funded_wallet, 0)
        pool.add(tx, 0)
        pool.select(lambda sender: 0, 10**9)
        assert len(pool) == 0
        assert tx.tx_hash not in pool
        # The hash may be admitted again (e.g. after a chain reorg).
        pool.add(tx, 0)
        assert len(pool) == 1


class TestNextNonce:
    def test_contiguous_run(self, funded_wallet):
        pool = Mempool()
        assert pool.next_nonce(funded_wallet.address, 4) == 4
        pool.add(_tx(funded_wallet, 4), 4)
        pool.add(_tx(funded_wallet, 5), 4)
        assert pool.next_nonce(funded_wallet.address, 4) == 6

    def test_stops_at_gap(self, funded_wallet):
        pool = Mempool()
        pool.add(_tx(funded_wallet, 0), 0)
        pool.add(_tx(funded_wallet, 2), 0)
        assert pool.next_nonce(funded_wallet.address, 0) == 1

    def test_correct_after_mid_chain_replacement(self, chain, funded_wallet):
        # Queue three, replace the middle one by fee: the wallet must keep
        # handing out nonce 3, not 4 (the old linear count over the flat
        # pool counted the replacement as a fourth transaction).
        funded_wallet.transfer("0x" + "aa" * 20, 1)
        funded_wallet.transfer("0x" + "aa" * 20, 1)
        funded_wallet.transfer("0x" + "aa" * 20, 1)
        bumped = Transaction(
            sender=funded_wallet.address, nonce=1, to="0x" + "bb" * 20,
            value=2, gas_price=2,
        ).sign(funded_wallet.key)
        chain.submit(bumped)
        assert len(chain.mempool) == 3
        assert funded_wallet._next_nonce() == 3
        chain.mine_block()
        assert chain.receipt_for(bumped.tx_hash).status
        assert chain.state.nonce_of(funded_wallet.address) == 3


class TestReceiptClobberRegression:
    """The duplicate-submission receipt-overwrite bug (blockchain.py)."""

    def test_duplicate_submit_of_pooled_tx(self, chain, funded_wallet):
        tx = _tx(funded_wallet, 0)
        chain.submit(tx)
        with pytest.raises(DuplicateTransactionError):
            chain.submit(tx)

    def test_duplicate_submit_cannot_clobber_mined_receipt(
            self, chain, funded_wallet):
        tx = _tx(funded_wallet, 0, value=17)
        chain.submit(tx)
        chain.mine_block()
        original = chain.receipt_for(tx.tx_hash)
        assert original.status
        # Re-signing the identical fields yields the identical hash
        # (deterministic ECDSA); resubmission must be refused outright
        # rather than minting a failed receipt over the success.
        replay = Transaction(
            sender=funded_wallet.address, nonce=0, to=tx.to,
            value=17, gas_limit=tx.gas_limit, gas_price=tx.gas_price,
        ).sign(funded_wallet.key)
        assert replay.tx_hash == tx.tx_hash
        with pytest.raises(DuplicateTransactionError):
            chain.submit(replay)
        chain.mine_block()
        after = chain.receipt_for(tx.tx_hash)
        assert after.status
        assert after is original


class TestNonceChainDropRegression:
    """The gas-deferral chain-drop bug: later nonces died with 'bad nonce'."""

    def test_deferred_chain_survives_to_next_block(self, rng):
        consensus = ProofOfAuthority.with_generated_validators(1, rng)
        chain = Blockchain(consensus, block_gas_limit=2_100_000)
        wallet = make_funded_wallet(chain, rng, "sender")
        recipient = "0x" + "dd" * 20
        hashes = [wallet.transfer(recipient, 100) for _ in range(3)]
        # Each transfer reserves 2M gas, so only one fits per 2.1M block.
        # On the flat-list path nonces 1 and 2 were mined *in the same
        # block ahead of their predecessor's retry* and dropped with
        # synthetic "bad nonce" receipts; now the chain defers whole.
        first = chain.mine_block()
        assert len(first.transactions) == 1
        assert len(chain.mempool) == 2
        second = chain.mine_block()
        third = chain.mine_block()
        assert len(second.transactions) == 1
        assert len(third.transactions) == 1
        for tx_hash in hashes:
            assert chain.receipt_for(tx_hash).status
        assert chain.state.balance_of(recipient) == 300
        assert len(chain.mempool) == 0

    def test_admission_failure_defers_rest_of_chain(self, chain, rng):
        # A sender whose first transaction fails admission (unaffordable)
        # must not have the rest of the chain burned on nonce checks: the
        # failed tx gets its receipt, the followers return to the pool.
        poor = Wallet.generate(chain, rng, "poor")
        chain.state.credit(poor.address, 3_000_000)  # < 2 * upfront
        h0 = poor.transfer("0x" + "aa" * 20, 2_500_000)  # unaffordable + fee
        h1 = poor.transfer("0x" + "aa" * 20, 1)
        chain.mine_block()
        receipt = chain.receipt_for(h0)
        assert not receipt.status
        assert receipt.error.startswith("rejected:")
        # The follower is back in the pool, unmined, with no receipt.
        assert len(chain.mempool) == 1
        assert list(chain.mempool)[0].tx_hash == h1


class TestForgedIntake:
    """Deferred verification is not trust (``Mempool.add``, ``mine_block``)."""

    def test_forged_copy_first_cannot_shadow_the_genuine_tx(
            self, chain, funded_wallet):
        forged = _forge(_tx(funded_wallet, 0, value=17))
        genuine = _tx(funded_wallet, 0, value=17)
        assert forged.tx_hash == genuine.tx_hash
        chain.submit(forged)  # empty slot: admitted unverified
        chain.submit(genuine)  # same hash, but the incumbent is forged
        assert list(chain.mempool) == [genuine]
        chain.mine_block()
        assert chain.receipt_for(genuine.tx_hash).status
        assert chain.state.balance_of(genuine.to) == 17
        # The one receipt under that hash belongs to the genuine execution.
        assert chain.head.transactions == [genuine]

    def test_forgery_dropped_at_a_block_boundary_leaves_no_receipt(
            self, chain, funded_wallet):
        forged = _forge(_tx(funded_wallet, 0, value=17))
        chain.submit(forged)
        block = chain.mine_block()
        assert block.transactions == []
        assert chain.observer.records[-1]["verify"]["invalid"] == 1
        with pytest.raises(ChainError, match="no receipt"):
            chain.receipt_for(forged.tx_hash)
        genuine = _tx(funded_wallet, 0, value=17)
        chain.submit(genuine)  # not "already mined"
        chain.mine_block()
        assert chain.receipt_for(genuine.tx_hash).status

    @pytest.mark.parametrize("bump_pct", [10, 1000])
    def test_forged_replacement_never_evicts(self, chain, funded_wallet,
                                             bump_pct):
        genuine = _tx(funded_wallet, 0, gas_price=10)
        chain.submit(genuine)
        forged = _forge(_tx(funded_wallet, 0, value=2,
                            gas_price=10 + bump_pct // 10))
        with pytest.raises(InvalidTransactionError, match="signature"):
            chain.submit(forged)
        assert list(chain.mempool) == [genuine]
        assert chain.mempool.replacements == 0
        chain.mine_block()
        assert chain.receipt_for(genuine.tx_hash).status

    def test_forged_squatter_is_evicted_at_lower_fee(self, chain,
                                                     funded_wallet):
        squatter = _forge(_tx(funded_wallet, 0, value=2, gas_price=50))
        chain.submit(squatter)
        genuine = _tx(funded_wallet, 0, gas_price=1)
        chain.submit(genuine)  # no fee bump owed to a forgery
        assert list(chain.mempool) == [genuine]
        assert squatter.tx_hash not in chain.mempool
        assert chain.mempool.replacements == 0
        chain.mine_block()
        assert chain.receipt_for(genuine.tx_hash).status

    def test_forged_duplicate_of_a_genuine_pending_tx_is_refused(
            self, chain, funded_wallet):
        genuine = _tx(funded_wallet, 0)
        chain.submit(genuine)
        with pytest.raises(InvalidTransactionError, match="signature"):
            chain.submit(_forge(_tx(funded_wallet, 0)))
        assert list(chain.mempool) == [genuine]

    @pytest.mark.parametrize("tamper", ["r", "s", "key", "unsigned", "field"])
    def test_tampered_signature_never_executes_on_the_default_chain(
            self, chain, two_wallets, tamper):
        alice, bob = two_wallets
        tx = _tx(alice, 0, value=1000)
        sig = tx.signature
        if tamper == "r":
            _forge(tx)
        elif tamper == "s":
            tx.signature = Signature(r=sig.r, s=sig.s % (N // 2) + 1, v=sig.v)
        elif tamper == "key":
            tx.public_key = bob.key.public_key
        elif tamper == "unsigned":
            tx.signature = None
        else:
            tx.value = 10**6  # signed for 1000
        root = chain.state.state_root()
        chain.submit(tx)
        bob_hash = bob.transfer("0x" + "dd" * 20, 5)
        block = chain.mine_block()
        assert [t.tx_hash for t in block.transactions] == [bob_hash]
        assert tx.tx_hash not in chain._receipts
        assert chain.state.nonce_of(alice.address) == 0
        assert chain.state.balance_of(alice.address) == 10**12
        assert chain.state.balance_of(tx.to) == 0
        assert chain.state.state_root() != root  # bob's transfer only
        assert chain.auditor.summary()["violation_count"] == 0
