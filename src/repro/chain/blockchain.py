"""The blockchain: chain assembly, a mempool, and a client-side wallet API.

:class:`Blockchain` ties together the world state, the VM, and proof of
authority: transactions enter a pending pool, ``mine_block`` seals them into
the next block, and receipts/events stay queryable forever — the audit trail
the governance layer (Section II-C) requires.

Signatures are checked **once, at block entry, batched**: ``submit`` does no
curve work for a transaction that contests nothing, ``mine_block`` runs one
key-folded :func:`~repro.crypto.ecdsa.batch_verify` over everything the
mempool selected, and nothing below it re-verifies.  Deferred
is not trusted: a transaction that fails the batch is dropped without a
receipt, and a transaction that contests a pooled one is verified on the
spot (see :meth:`Blockchain.submit`).

:class:`Wallet` is the ergonomic account handle used throughout the
marketplace: it tracks nonces, signs, and exposes ``deploy`` / ``call`` /
``view`` helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

import numpy as np

from repro.chain import gas as gas_schedule
from repro.chain.audit import ChainAuditor
from repro.chain.block import Block, BlockHeader
from repro.chain.consensus import ProofOfAuthority
from repro.chain.contract import ContractRegistry, default_registry
from repro.chain.mempool import Mempool
from repro.chain.observe import ChainObserver
from repro.chain.state import WorldState
from repro.chain.transaction import CREATE, LogEntry, Receipt, Transaction
from repro.chain.vm import VM, BlockContext
from repro.crypto.ecdsa import PrivateKey, batch_verify
from repro.crypto.hashing import keccak256
from repro.errors import (
    ChainError,
    DuplicateTransactionError,
    InvalidBlockError,
    InvalidTransactionError,
)
from repro.telemetry import metrics as _tm
from repro.telemetry.tracing import tracer as _tracer

GENESIS_PARENT = keccak256(b"pds2-genesis")

# Chain-layer telemetry (module-level handles on the process registry, so
# the per-block cost is a couple of attribute increments).
_BLOCKS_MINED = _tm.counter(
    "pds2_chain_blocks_mined_total", "Blocks sealed onto the chain"
)
_CHAIN_GAS = _tm.counter(
    "pds2_chain_gas_total", "Cumulative gas across all sealed blocks"
)
_TXS_INCLUDED = _tm.counter(
    "pds2_chain_txs_included_total", "Transactions sealed into blocks"
)
_TXS_REJECTED = _tm.counter(
    "pds2_chain_txs_rejected_total",
    "Transactions dropped at block admission (bad signature, bad nonce, "
    "unaffordable)"
)
_BLOCK_GAS_HIST = _tm.histogram(
    "pds2_chain_block_gas", "Gas used per sealed block",
    buckets=_tm.GAS_BUCKETS,
)
_VERIFY_BATCH = _tm.counter(
    "pds2_chain_verify_batch_total",
    "Block-entry batch signature verifications, by outcome",
    labelnames=("outcome",),  # clean | invalid
)


@dataclass
class BlockExecution:
    """Outcome of applying one block's worth of transactions."""

    #: Transactions included in the block, in commit order.
    included: list[Transaction] = field(default_factory=list)
    #: Receipt per included transaction hash.
    receipts: dict[bytes, Receipt] = field(default_factory=dict)
    #: Admission failures: ``(tx, error message)`` — the chain writes the
    #: synthetic failed receipt (it owns receipt bookkeeping).
    rejected: list[tuple[Transaction, str]] = field(default_factory=list)
    #: Transactions to put back in the pool (sender chain behind a failure).
    deferred: list[Transaction] = field(default_factory=list)
    gas_used: int = 0


def execute_serial(vm: VM, state: WorldState, block: BlockContext,
                   txs: list[Transaction]) -> BlockExecution:
    """Apply ``txs`` in block order.

    A transaction that fails admission (bad nonce, unaffordable) is
    rejected with its error string, and the same sender's later
    transactions are deferred back to the pool instead of being run into
    certain ``bad nonce`` failures.
    """
    result = BlockExecution()
    failed_senders: set[str] = set()
    for tx in txs:
        if tx.sender in failed_senders:
            result.deferred.append(tx)
            continue
        try:
            receipt = vm.apply_transaction(state, block, tx)
        except ChainError as exc:
            result.rejected.append((tx, str(exc)))
            failed_senders.add(tx.sender)
            continue
        result.receipts[tx.tx_hash] = receipt
        result.included.append(tx)
        result.gas_used += receipt.gas_used
    return result


class Blockchain:
    """A single-chain ledger with PoA sealing and full receipt history."""

    def __init__(self, consensus: ProofOfAuthority,
                 registry: Optional[ContractRegistry] = None,
                 block_gas_limit: int = gas_schedule.BLOCK_GAS_LIMIT):
        self.consensus = consensus
        self.registry = registry if registry is not None else default_registry()
        self.vm = VM(registry=self.registry)
        self.state = WorldState()
        self.block_gas_limit = block_gas_limit
        self.blocks: list[Block] = []
        self._receipts: dict[bytes, Receipt] = {}
        #: ``(block_number, log)`` per emitting contract, in chain order,
        #: appended as blocks seal: what ``events(address=...)`` reads.
        self._logs_by_address: dict[str, list[tuple[int, LogEntry]]] = {}
        self.mempool = Mempool()
        #: Cumulative gas over all sealed blocks, maintained at mine time so
        #: gas accounting is O(1) instead of a rescan of the whole chain.
        self.total_gas_used = 0
        #: Observers called with each newly sealed block (the event-bus hook
        #: the marketplace uses; the chain layer stays core-agnostic).
        self.block_observers: list[Any] = []
        #: Hooks called ``hook(chain, block)`` right after a block seals,
        #: *before* the auditor runs — the tamper seam the resilience
        #: harness uses to corrupt state at a block boundary
        #: (:func:`repro.chain.audit.install_state_corruption`).
        self.tamper_hooks: list[Any] = []
        #: Per-block analytics.
        self.observer = ChainObserver(self)
        #: Continuous invariant auditor.
        self.auditor = ChainAuditor(self)
        self._seal_genesis()

    # -- construction --------------------------------------------------------

    def _seal_genesis(self) -> None:
        header = BlockHeader(
            number=0,
            parent_hash=GENESIS_PARENT,
            timestamp=0.0,
            tx_root=Block.compute_tx_root([]),
            state_root=self.state.state_root(),
            validator=self.consensus.proposer_for(0).address,
        )
        self.consensus.seal(header)
        self.blocks.append(Block(header=header, transactions=[]))

    # -- chain queries ----------------------------------------------------------

    @property
    def height(self) -> int:
        """Number of the latest sealed block."""
        return self.blocks[-1].header.number

    @property
    def head(self) -> Block:
        """The latest sealed block."""
        return self.blocks[-1]

    def receipt_for(self, tx_hash: bytes) -> Receipt:
        """Look up the receipt of a mined transaction."""
        if tx_hash not in self._receipts:
            raise ChainError(f"no receipt for transaction {tx_hash.hex()}")
        return self._receipts[tx_hash]

    def events(self, name: Optional[str] = None,
               address: Optional[str] = None,
               ) -> Iterator[tuple[int, LogEntry]]:
        """Iterate ``(block_number, log)`` over successful-tx events.

        Filters by event name and/or emitting contract address.  This is the
        query surface providers and auditors use to follow workloads; asked
        by address it reads that contract's own log list (kept at seal
        time), otherwise it walks every block.
        """
        if address is not None:
            for number, log in self._logs_by_address.get(address, ()):
                if name is None or log.name == name:
                    yield number, log
            return
        for block in self.blocks:
            for log in self.logs_of(block):
                if name is None or log.name == name:
                    yield block.header.number, log

    # -- transaction intake and mining ----------------------------------------------

    @property
    def pending(self) -> list[Transaction]:
        """Snapshot of the pooled transactions (sender chains nonce-ordered)."""
        return list(self.mempool)

    def submit(self, tx: Transaction) -> bytes:
        """Admit a signed transaction to the mempool; returns its hash.

        Rejects duplicates of both *pooled* and *already mined* transactions
        — resubmitting a mined hash used to mint a synthetic failure receipt
        that overwrote the original success receipt.

        The signature of a transaction that lands in an empty
        ``(sender, nonce)`` slot is *not* checked here — that is all honest
        traffic, and :meth:`mine_block` verifies it batched.  A transaction
        that contests an occupied slot (a duplicate or a replace-by-fee) is
        verified on the spot and raises :class:`InvalidTransactionError` if
        forged, so an unverified transaction can never evict or shadow
        another one (:meth:`Mempool.add <repro.chain.mempool.Mempool.add>`).
        Only verified transactions ever get a receipt, so "already mined"
        cannot be provoked by a forgery either.
        """
        tx.validate_shape()
        if tx.tx_hash in self._receipts:
            raise DuplicateTransactionError(
                f"transaction {tx.tx_hash.hex()} was already mined"
            )
        self.mempool.add(tx, self.state.nonce_of(tx.sender))
        return tx.tx_hash

    def _verify_block_batch(self, selected: list[Transaction],
                            stats: dict) -> list[Transaction]:
        """Batch-verify the signatures of the block's transactions.

        One key-folded multi-scalar multiplication covers the whole batch;
        bisection inside :func:`~repro.crypto.ecdsa.batch_verify` isolates
        any bad signatures.  Those are dropped and counted — **no receipt**:
        the hash does not cover the signature, so a receipt for a forgery
        would mark the genuine transaction "already mined" — while the rest
        of their sender's chain goes back to the pool (a later nonce cannot
        run once its predecessor is dropped).  Returns the transactions to
        execute; ``stats`` receives the bisection telemetry plus ``invalid``.
        """
        with _tracer().span("chain.verify_batch",
                            transactions=len(selected)) as span:
            invalid: set[int] = set()
            items = []
            item_indices = []
            for index, tx in enumerate(selected):
                if (tx.signature is None or tx.public_key is None
                        or tx.public_key.address != tx.sender):
                    invalid.add(index)
                else:
                    items.append((tx.public_key, tx.signing_bytes(),
                                  tx.signature))
                    item_indices.append(index)
            verdicts = batch_verify(items, stats) if items else []
            invalid.update(index for index, good
                           in zip(item_indices, verdicts) if not good)
            failed_senders: set[str] = set()
            to_execute: list[Transaction] = []
            for index, tx in enumerate(selected):
                if tx.sender in failed_senders:
                    self.mempool.requeue(tx)
                elif index in invalid:
                    _TXS_REJECTED.inc()
                    failed_senders.add(tx.sender)
                else:
                    to_execute.append(tx)
            span.set_attribute("invalid", len(invalid))
            for key in ("batched", "singles", "subchecks", "depth"):
                stats.setdefault(key, 0)
            stats["invalid"] = len(invalid)
            child = _VERIFY_BATCH.labels(
                outcome="invalid" if invalid else "clean"
            )
            child.inc()
            _tm.annotate_exemplar(child)
        return to_execute

    def mine_block(self, timestamp: Optional[float] = None) -> Block:
        """Seal the best pending transactions into the next block.

        The mempool hands over sender chains in nonce order, highest gas
        price first, packing by gas-limit reservation — a chain whose head
        does not fit is deferred whole.  Every selected transaction's
        signature is then checked in one batch (:meth:`_verify_block_batch`,
        the only verification a transaction gets); a forged one is dropped
        with no receipt.  Verified transactions that fail *admission* (bad
        nonce, unaffordable) are dropped with a synthetic failed receipt.
        Either way the rest of the sender's chain returns to the pool;
        transactions that revert during execution are still included, as on
        Ethereum.
        """
        number = self.height + 1
        proposer = self.consensus.proposer_for(number)
        block_ctx = BlockContext(
            number=number,
            timestamp=(
                timestamp if timestamp is not None
                else self.head.header.timestamp + 1.0
            ),
            validator=proposer.address,
        )
        with _tracer().span("chain.mine_block", height=number) as span:
            pre_audit = self.auditor.pre_block()
            with _tracer().span("mempool.select", height=number) as sel_span:
                selected = self.mempool.select(
                    self.state.nonce_of, self.block_gas_limit
                )
                sel_span.set_attribute("selected", len(selected))
                sel_span.set_attribute(
                    "deferred",
                    self.mempool.last_selection.get("deferred", 0),
                )
            verify_stats: dict[str, int] = {}
            if selected:
                selected = self._verify_block_batch(selected, verify_stats)
            with _tracer().span("block.execute", height=number):
                execution = execute_serial(
                    self.vm, self.state, block_ctx, selected,
                )
            for tx, error in execution.rejected:
                # Never overwrite a mined receipt with a synthetic failure
                # (the duplicate-submission clobber this layer used to have).
                if tx.tx_hash not in self._receipts:
                    self._receipts[tx.tx_hash] = Receipt(
                        tx_hash=tx.tx_hash, status=False, gas_used=0,
                        error=f"rejected: {error}", block_number=number,
                    )
                _TXS_REJECTED.inc()
            for tx in execution.deferred:
                self.mempool.requeue(tx)
            self._receipts.update(execution.receipts)
            included = execution.included
            gas_used = execution.gas_used
            header = BlockHeader(
                number=number,
                parent_hash=self.head.block_hash,
                timestamp=block_ctx.timestamp,
                tx_root=Block.compute_tx_root(included),
                state_root=self.state.state_root(),
                validator=proposer.address,
                gas_used=gas_used,
            )
            self.consensus.seal(header)
            block = Block(header=header, transactions=included)
            self.blocks.append(block)
            for log in self.logs_of(block):
                self._logs_by_address.setdefault(log.address, []).append(
                    (number, log))
            self.total_gas_used += gas_used
            _BLOCKS_MINED.inc()
            _CHAIN_GAS.inc(gas_used)
            _TXS_INCLUDED.inc(len(included))
            _BLOCK_GAS_HIST.observe(gas_used)
            span.set_attribute("transactions", len(included))
            span.set_attribute("gas", gas_used)
            # Tamper seam first (fault injection corrupts *sealed* state),
            # then analytics, then the invariant sweep — so the auditor
            # sees exactly what the next block would build on.
            for hook in self.tamper_hooks:
                hook(self, block)
            self.observer.record_block(
                block, execution, self.mempool.last_selection, verify_stats,
            )
            self.auditor.post_block(block, execution, pre_audit)
        for observer in self.block_observers:
            observer(block)
        return block

    def logs_of(self, block: Block) -> Iterator[LogEntry]:
        """Logs emitted by the successful transactions of one block."""
        for tx in block.transactions:
            receipt = self._receipts[tx.tx_hash]
            if receipt.status:
                yield from receipt.logs

    # -- verification ------------------------------------------------------------

    def verify_chain(self, since: int = 0) -> None:
        """Re-verify every header, seal, and parent link from block ``since``.

        This is the audit primitive: any retroactive tamper with a block body
        or header breaks either a tx root, a parent hash, or a seal, and a
        chain cut at the front no longer starts at genesis.  The seals are
        checked last, all in one batch.

        With ``since = k`` the front is still anchored, ``blocks[k]`` must be
        block ``k``, and the checks cover blocks ``k`` to the head plus the
        link of block ``k`` into block ``k - 1``; what lies before that link
        was checked by the chain auditor as each block sealed (DESIGN §16).
        """
        if not self.blocks:
            raise InvalidBlockError("the chain has no genesis block")
        genesis = self.blocks[0].header
        if genesis.number != 0 or genesis.parent_hash != GENESIS_PARENT:
            raise InvalidBlockError("the chain does not start at genesis")
        if (not 0 <= since < len(self.blocks)
                or self.blocks[since].header.number != since):
            raise InvalidBlockError(f"the chain holds no block {since}")
        previous = self.blocks[since - 1] if since else None
        segment = self.blocks[since:]
        for block in segment:
            block.validate_structure()
            if previous is not None:
                if block.header.parent_hash != previous.block_hash:
                    raise InvalidBlockError(
                        f"block {block.header.number} has a broken parent link"
                    )
                if block.header.number != previous.header.number + 1:
                    raise InvalidBlockError("non-contiguous block numbers")
                if block.header.timestamp < previous.header.timestamp:
                    raise InvalidBlockError("timestamps must not decrease")
            previous = block
        self.consensus.verify_seals([block.header for block in segment])

    # -- free views --------------------------------------------------------------

    def view(self, caller: str, contract: str, method: str,
             **args: Any) -> Any:
        """Query a contract view for free against the current head state."""
        block_ctx = BlockContext(
            number=self.height,
            timestamp=self.head.header.timestamp,
            validator=self.head.header.validator,
        )
        return self.vm.static_view(
            self.state, block_ctx, caller, contract, method, **args
        )


@dataclass
class Wallet:
    """A signing account bound to one chain, with automatic nonce tracking."""

    chain: Blockchain
    key: PrivateKey
    name: str = ""

    @classmethod
    def generate(cls, chain: Blockchain, rng: np.random.Generator,
                 name: str = "") -> "Wallet":
        """Create a wallet with a fresh key."""
        return cls(chain=chain, key=PrivateKey.generate(rng), name=name)

    @property
    def address(self) -> str:
        return self.key.address

    @property
    def balance(self) -> int:
        return self.chain.state.balance_of(self.address)

    def _next_nonce(self) -> int:
        # End of our contiguous pooled nonce run — an O(queue) lookup in the
        # mempool instead of a linear scan of the whole pool.  Correct under
        # replace-by-fee (the replacement keeps its nonce slot) and after an
        # admission failure left a gap: the gap nonce is the one to reuse.
        return self.chain.mempool.next_nonce(
            self.address, self.chain.state.nonce_of(self.address)
        )

    def _build(self, to: Optional[str], value: int, payload: dict,
               gas_limit: int) -> Transaction:
        tx = Transaction(
            sender=self.address,
            nonce=self._next_nonce(),
            to=to,
            value=value,
            payload=payload,
            gas_limit=gas_limit,
        )
        return tx.sign(self.key)

    def transfer(self, to: str, value: int,
                 gas_limit: int = gas_schedule.DEFAULT_TX_GAS_LIMIT) -> bytes:
        """Queue a plain value transfer."""
        return self.chain.submit(self._build(to, value, {}, gas_limit))

    def deploy(self, contract_name: str, value: int = 0,
               gas_limit: int = gas_schedule.DEFAULT_TX_GAS_LIMIT,
               **args: Any) -> bytes:
        """Queue a contract deployment; returns the tx hash.

        The deployed address is available from the receipt after mining, or
        precomputed via :meth:`deployed_address`.
        """
        payload = {"contract": contract_name, "args": args}
        return self.chain.submit(self._build(CREATE, value, payload, gas_limit))

    def deployed_address(self, tx_hash: bytes) -> str:
        """Address of the contract created by a mined deploy transaction."""
        receipt = self.chain.receipt_for(tx_hash)
        if not receipt.status or receipt.contract_address is None:
            raise InvalidTransactionError("deployment failed or not mined")
        return receipt.contract_address

    def call(self, contract: str, method: str, value: int = 0,
             gas_limit: int = gas_schedule.DEFAULT_TX_GAS_LIMIT,
             **args: Any) -> bytes:
        """Queue a contract method call; returns the tx hash."""
        payload = {"method": method, "args": args}
        return self.chain.submit(
            self._build(contract, value, payload, gas_limit)
        )

    def view(self, contract: str, method: str, **args: Any) -> Any:
        """Free read-only contract query from this wallet's address."""
        return self.chain.view(self.address, contract, method, **args)

    def call_and_mine(self, contract: str, method: str, value: int = 0,
                      gas_limit: int = gas_schedule.DEFAULT_TX_GAS_LIMIT,
                      **args: Any) -> Receipt:
        """Convenience: call, mine immediately, and return the receipt."""
        tx_hash = self.call(contract, method, value=value,
                            gas_limit=gas_limit, **args)
        self.chain.mine_block()
        return self.chain.receipt_for(tx_hash)

    def deploy_and_mine(self, contract_name: str, value: int = 0,
                        gas_limit: int = gas_schedule.DEFAULT_TX_GAS_LIMIT,
                        **args: Any) -> str:
        """Convenience: deploy, mine, and return the contract address."""
        tx_hash = self.deploy(contract_name, value=value, gas_limit=gas_limit,
                              **args)
        self.chain.mine_block()
        return self.deployed_address(tx_hash)
