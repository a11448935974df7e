"""Tests for chain assembly, mining, events, and verification."""

from __future__ import annotations

import pytest

from repro.chain import blockchain as blockchain_mod
from repro.chain import consensus as consensus_mod
from repro.chain.block import Block
from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority
from repro.chain.transaction import Transaction
from repro.crypto import ecdsa, libcrypto
from repro.errors import ChainError, InvalidBlockError
from tests.conftest import make_funded_wallet


class TestGenesis:
    def test_there_is_no_execution_selector(self, rng):
        consensus = ProofOfAuthority.with_generated_validators(1, rng)
        with pytest.raises(TypeError, match="execution"):
            Blockchain(consensus, execution="parallel")
        with pytest.raises(TypeError, match="parallel_lanes"):
            Blockchain(consensus, parallel_lanes=4)

    def test_genesis_exists(self, chain):
        assert chain.height == 0
        assert chain.blocks[0].transactions == []

    def test_genesis_alloc(self, rng):
        # Genesis allocates nothing; an account is funded by crediting the
        # state, as ``Marketplace`` and the benchmarks do.
        consensus = ProofOfAuthority.with_generated_validators(1, rng)
        chain = Blockchain(consensus)
        assert chain.state.balances == {}
        chain.state.credit("0x" + "ab" * 20, 500)
        assert chain.state.balance_of("0x" + "ab" * 20) == 500


class TestMining:
    def test_empty_block(self, chain):
        block = chain.mine_block()
        assert block.header.number == 1
        assert block.transactions == []

    def test_timestamps_monotone(self, chain):
        chain.mine_block(10.0)
        with pytest.raises(InvalidBlockError):
            chain.mine_block(5.0)
            chain.verify_chain()

    def test_transactions_included(self, chain, funded_wallet):
        funded_wallet.transfer("0x" + "11" * 20, 5)
        block = chain.mine_block()
        assert len(block.transactions) == 1

    def test_block_gas_limit_defers_transactions(self, rng):
        consensus = ProofOfAuthority.with_generated_validators(1, rng)
        chain = Blockchain(consensus, block_gas_limit=2_100_000)
        wallet = make_funded_wallet(chain, rng)
        for _ in range(3):  # each tx reserves the 2M default gas limit
            wallet.transfer("0x" + "11" * 20, 1)
        first = chain.mine_block()
        assert len(first.transactions) == 1
        assert len(chain.mempool) == 2
        second = chain.mine_block()
        assert len(second.transactions) == 1

    def test_rejected_tx_gets_failed_receipt(self, chain, rng):
        poor = Wallet.generate(chain, rng, "poor")
        chain.state.credit(poor.address, 10)  # can't afford gas
        tx_hash = poor.transfer("0x" + "11" * 20, 1)
        chain.mine_block()
        receipt = chain.receipt_for(tx_hash)
        assert not receipt.status
        assert "rejected" in receipt.error


    def test_validator_fee_is_the_sum_of_gas_used_times_gas_price(self, rng):
        consensus = ProofOfAuthority.with_generated_validators(1, rng)
        chain = Blockchain(consensus)
        validator = consensus.proposer_for(1).address
        hashes = []
        for price in (1, 2, 3, 5, 8, 13):
            wallet = make_funded_wallet(chain, rng, f"w{price}")
            hashes.append(chain.submit(Transaction(
                sender=wallet.address, nonce=0, to="0x" + "11" * 20,
                value=123, gas_price=price,
            ).sign(wallet.key)))
        block = chain.mine_block()
        receipts = [chain.receipt_for(tx_hash) for tx_hash in hashes]
        assert [r.gas_used for r in receipts] == [21_032] * 6
        assert block.header.gas_used == 6 * 21_032
        # Fees are credited inline, one transaction at a time, in full.
        assert chain.state.balance_of(validator) == 21_032 * (1 + 2 + 3 + 5 + 8 + 13)


@pytest.mark.usefixtures("equation_from_32")
class TestBlockEntryVerification:
    """One batched check per block is the only verification a tx gets; a
    block of 32 or more transactions is one equation."""

    def test_one_batch_call_and_no_individual_verifies(
            self, chain, rng, monkeypatch):
        wallets = [make_funded_wallet(chain, rng, f"w{i}") for i in range(6)]
        for wallet in wallets:
            for _ in range(6):
                wallet.transfer("0x" + "11" * 20, 5, gas_limit=50_000)
        batches, singles = [], []
        real_batch = blockchain_mod.batch_verify
        real_check = ecdsa._check

        def counting_batch(items):
            batches.append(len(items))
            return real_batch(items)

        def counting_check(handle, message, signature):
            singles.append(handle)
            return real_check(handle, message, signature)

        monkeypatch.setattr(blockchain_mod, "batch_verify", counting_batch)
        monkeypatch.setattr(ecdsa, "_check", counting_check)
        block = chain.mine_block()
        assert len(block.transactions) == 36
        assert batches == [36]
        assert singles == []
        assert chain.observer.records[-1]["verify"] == {
            "signatures": 36, "invalid": 0}

    def test_a_wide_block_builds_no_point_table(self, chain, rng,
                                                monkeypatch):
        # 64 senders × 8 transactions: 512 nonce points and 64 folded key
        # terms, all of them in one equation, counted at the binding's
        # call: libcrypto gets the points and scalars, no table.
        wallets = [make_funded_wallet(chain, rng, f"w{i}") for i in range(64)]
        sums = []
        real = libcrypto.sum_is_infinity

        def recording(base_scalar, terms):
            sums.append((len(terms),
                         sum(k.bit_length() > 128 for k, _ in terms)))
            return real(base_scalar, terms)

        monkeypatch.setattr(libcrypto, "sum_is_infinity", recording)
        for _ in range(2):
            for wallet in wallets:
                for _ in range(8):
                    wallet.transfer("0x" + "11" * 20, 5, gas_limit=50_000)
            block = chain.mine_block()
            assert len(block.transactions) == 512
            assert chain.observer.records[-1]["verify"] == {
                "signatures": 512, "invalid": 0}
        # Each block: its 512 nonce terms (128-bit coefficients) and 64
        # full-length key terms (one is shorter with probability ~2⁻¹²⁸).
        assert sums == [(512 + 64, 64)] * 2


class TestReceiptsAndEvents:
    def test_missing_receipt_raises(self, chain):
        with pytest.raises(ChainError):
            chain.receipt_for(b"\x00" * 32)

    def test_events_filter_by_name(self, chain, funded_wallet):
        address = funded_wallet.deploy_and_mine("erc20", initial_supply=10)
        funded_wallet.call_and_mine(address, "approve",
                                    spender="0x" + "22" * 20, amount=5)
        names = {log.name for _, log in chain.events(address=address)}
        assert "Transfer" in names and "Approval" in names
        only_approvals = list(chain.events(name="Approval", address=address))
        assert len(only_approvals) == 1

    def test_events_filter_by_block(self, chain, funded_wallet):
        address = funded_wallet.deploy_and_mine("erc20", initial_supply=10)
        height_after_deploy = chain.height
        funded_wallet.call_and_mine(address, "transfer",
                                    recipient="0x" + "22" * 20, amount=1)
        # Every event carries its block number; that is the block filter.
        recent = [(number, log) for number, log in chain.events(address)
                  if number > height_after_deploy]
        assert [log.name for _, log in recent] == ["Transfer"]


    def test_events_by_address_equal_the_filtered_scan(self, chain, rng):
        """``events(address)`` reads a list kept at seal time; the scan
        over every block and receipt is what it has to agree with."""
        rich, other = (make_funded_wallet(chain, rng, name)
                       for name in ("rich", "other"))
        poor = Wallet.generate(chain, rng, "poor")
        chain.state.credit(poor.address, 10)  # cannot afford gas: rejected
        tokens = [rich.deploy_and_mine("erc20", initial_supply=100),
                  other.deploy_and_mine("erc20", initial_supply=100)]
        deed = rich.deploy_and_mine("erc721")
        for round_ in range(3):
            rich.call(tokens[0], "transfer", recipient=other.address,
                      amount=1)
            rich.call(tokens[0], "approve", spender=other.address, amount=2)
            other.call(tokens[1], "transfer", recipient=rich.address,
                       amount=1)
            # Overdraws: reverts, and a reverted transaction logs nothing.
            other.call(tokens[0], "transfer", recipient=rich.address,
                       amount=10**6)
            rich.call(deed, "mint", recipient=other.address,
                      uri=f"deed-{round_}")
            poor.call(tokens[1], "approve", spender=rich.address,
                      amount=round_)
            chain.mine_block()
            chain.mine_block()  # an empty block between rounds
        scan = [(block.header.number, log) for block in chain.blocks
                for log in chain.logs_of(block)]
        assert {log.address for _, log in scan} == {*tokens, deed}
        statuses = [chain.receipt_for(tx.tx_hash).status
                    for block in chain.blocks for tx in block.transactions]
        assert statuses.count(False) == 3  # the overdraws; rejects not mined
        names = {log.name for _, log in scan} | {None, "NoSuchEvent"}
        for address in (*tokens, deed, rich.address):
            for name in names:
                assert list(chain.events(name=name, address=address)) == [
                    (number, log) for number, log in scan
                    if log.address == address and name in (None, log.name)
                ]
        assert list(chain.events(address=rich.address)) == []
        approvals = (entry for address in (*tokens, deed)
                     for entry in chain.events(address, name="Approval"))
        assert sorted(approvals, key=scan.index) == [
            entry for entry in scan if entry[1].name == "Approval"]


class TestVerification:
    def test_fresh_chain_verifies(self, chain, funded_wallet):
        funded_wallet.transfer("0x" + "11" * 20, 5)
        chain.mine_block()
        chain.mine_block()
        chain.verify_chain()

    def test_tampered_body_detected(self, chain, funded_wallet):
        funded_wallet.transfer("0x" + "11" * 20, 5)
        chain.mine_block()
        chain.blocks[1].transactions.clear()
        with pytest.raises(InvalidBlockError):
            chain.verify_chain()

    def test_tampered_header_detected(self, chain):
        chain.mine_block()
        chain.blocks[1].header.gas_used += 1
        with pytest.raises(InvalidBlockError):
            chain.verify_chain()

    def test_broken_parent_link_detected(self, chain):
        chain.mine_block()
        chain.mine_block()
        chain.blocks[2].header.parent_hash = b"\x00" * 32
        with pytest.raises(InvalidBlockError):
            chain.verify_chain()

    def test_chain_cut_at_the_front_is_detected(self, chain):
        for _ in range(3):
            chain.mine_block()
        del chain.blocks[0:2]  # what is left links up and is sealed
        with pytest.raises(InvalidBlockError, match="genesis"):
            chain.verify_chain()

    def test_empty_chain_is_detected(self, chain):
        chain.blocks.clear()
        with pytest.raises(InvalidBlockError, match="genesis"):
            chain.verify_chain()

    @pytest.mark.usefixtures("equation_from_32")
    def test_seals_go_to_one_batch_and_no_individual_verifies(
            self, rng, monkeypatch):
        consensus = ProofOfAuthority.with_generated_validators(3, rng)
        chain = Blockchain(consensus)
        for _ in range(31):
            chain.mine_block()
        batches, singles = [], []
        real_batch = consensus_mod.batch_verify
        real_check = ecdsa._check

        def counting_batch(items):
            batches.append(len(items))
            return real_batch(items)

        def counting_check(handle, message, signature):
            singles.append(handle)
            return real_check(handle, message, signature)

        monkeypatch.setattr(consensus_mod, "batch_verify", counting_batch)
        monkeypatch.setattr(ecdsa, "_check", counting_check)
        chain.verify_chain()  # 32 seals, folded onto three keys
        chain.verify_chain()  # the same 32 again: one equation again
        chain.mine_block()
        chain.mine_block()
        chain.verify_chain()
        assert batches == [32, 32, 34]
        assert singles == []

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_one_bad_seal_among_forty_is_detected(self, chain, warm):
        for _ in range(40):
            chain.mine_block()
        if warm:
            chain.verify_chain()
        # A genuine signature by the right validator, over another header.
        chain.blocks[23].header.seal = chain.blocks[22].header.seal
        with pytest.raises(InvalidBlockError, match="block 23"):
            chain.verify_chain()

    def test_tx_root_matches_body(self, chain, funded_wallet):
        funded_wallet.transfer("0x" + "11" * 20, 5)
        block = chain.mine_block()
        assert block.header.tx_root == Block.compute_tx_root(
            block.transactions
        )


class TestVerifyChainSince:
    """``verify_chain(since=k)``: blocks k to the head, and the link into
    block k - 1.  What lies before that link is the documented boundary."""

    K, HEAD = 5, 8

    @pytest.fixture
    def tall(self, chain, funded_wallet):
        for index in range(self.HEAD):
            funded_wallet.transfer("0x" + "11" * 20, 5 + index)
            chain.mine_block()
        return chain

    @staticmethod
    def _edit(chain, number, what):
        block = chain.blocks[number]
        if what == "body":
            block.transactions.clear()
        elif what == "header":
            block.header.gas_used += 1
        else:  # a genuine seal by the right validator, over another header
            block.header.seal = chain.blocks[number - 1].header.seal

    def test_checks_only_its_segment(self, tall, monkeypatch):
        structures, batches = [], []
        real_structure = Block.validate_structure
        real_batch = consensus_mod.batch_verify

        def counting_structure(block):
            structures.append(block.header.number)
            return real_structure(block)

        def counting_batch(items):
            batches.append(len(items))
            return real_batch(items)

        monkeypatch.setattr(Block, "validate_structure", counting_structure)
        monkeypatch.setattr(consensus_mod, "batch_verify", counting_batch)
        tall.verify_chain(since=self.K)
        assert structures == list(range(self.K, self.HEAD + 1))
        assert batches == [self.HEAD - self.K + 1]
        tall.verify_chain(since=tall.height)
        assert structures[-1:] == [self.HEAD] and batches[-1] == 1
        del structures[:]
        tall.verify_chain(since=0)
        assert structures == list(range(self.HEAD + 1))

    @pytest.mark.parametrize("what", ["body", "header", "seal"])
    @pytest.mark.parametrize("number", [K, K + 1, HEAD])
    def test_edit_at_or_after_since_is_rejected(self, tall, number, what):
        self._edit(tall, number, what)
        with pytest.raises(InvalidBlockError):
            tall.verify_chain(since=self.K)
        with pytest.raises(InvalidBlockError):
            tall.verify_chain()

    def test_broken_link_into_the_block_before_is_rejected(self, tall):
        # Block K - 1 is outside the segment; its hash is not.
        self._edit(tall, self.K - 1, "header")
        with pytest.raises(InvalidBlockError,
                           match=f"block {self.K} has a broken parent link"):
            tall.verify_chain(since=self.K)

    @pytest.mark.parametrize("number,what", [
        (K - 1, "body"), (K - 1, "seal"), (K - 2, "header"), (1, "body")])
    def test_edit_before_the_link_is_seen_from_genesis_only(
            self, tall, number, what):
        self._edit(tall, number, what)
        tall.verify_chain(since=self.K)  # the boundary: not its segment
        with pytest.raises(InvalidBlockError):
            tall.verify_chain()
        with pytest.raises(InvalidBlockError):
            tall.verify_chain(since=number)

    @pytest.mark.parametrize("since", [-1, HEAD + 1, 10**6])
    def test_since_out_of_range_is_rejected(self, tall, since):
        with pytest.raises(InvalidBlockError, match="holds no block"):
            tall.verify_chain(since=since)

    def test_front_is_anchored_whatever_since_is(self, tall):
        genesis = tall.blocks[0]
        del tall.blocks[0:2]
        with pytest.raises(InvalidBlockError, match="genesis"):
            tall.verify_chain(since=self.K)
        tall.blocks.insert(0, genesis)  # block 1 is missing: blocks[K] is K + 1
        with pytest.raises(InvalidBlockError, match="holds no block"):
            tall.verify_chain(since=self.K)


class TestWallet:
    def test_nonce_tracking_across_blocks(self, chain, funded_wallet):
        funded_wallet.transfer("0x" + "11" * 20, 1)
        chain.mine_block()
        funded_wallet.transfer("0x" + "11" * 20, 2)
        chain.mine_block()
        assert chain.state.balance_of("0x" + "11" * 20) == 3

    def test_multiple_pending_from_same_wallet(self, chain, funded_wallet):
        funded_wallet.transfer("0x" + "11" * 20, 1)
        funded_wallet.transfer("0x" + "11" * 20, 2)
        funded_wallet.transfer("0x" + "11" * 20, 3)
        chain.mine_block()
        assert chain.state.balance_of("0x" + "11" * 20) == 6

    def test_deployed_address_requires_success(self, chain, funded_wallet):
        tx_hash = funded_wallet.deploy("nonexistent-contract")
        chain.mine_block()
        from repro.errors import InvalidTransactionError

        with pytest.raises(InvalidTransactionError):
            funded_wallet.deployed_address(tx_hash)

    def test_view_is_free(self, chain, funded_wallet):
        address = funded_wallet.deploy_and_mine("erc20", initial_supply=10)
        balance_before = funded_wallet.chain.state.balance_of(funded_wallet.address)
        for _ in range(5):
            funded_wallet.view(address, "total_supply")
        assert funded_wallet.chain.state.balance_of(funded_wallet.address) == balance_before
