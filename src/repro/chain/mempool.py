"""Nonce-ordered, fee-prioritized transaction pool.

The original chain kept pending transactions in a flat list, which produced
two real bugs at scale: a duplicate submission of the same signed transaction
would later *overwrite* the original's mined receipt with a synthetic
failure, and a transaction deferred for block-gas space orphaned the same
sender's later nonces, which were then dropped with ``bad nonce`` receipts.

:class:`Mempool` fixes both structurally:

* transactions live in **per-sender nonce queues** — block packing always
  takes a sender's transactions as a contiguous, nonce-ordered chain, and a
  chain whose head does not fit the remaining block gas is deferred *whole*;
* **duplicate hashes are rejected at admission** (both against the pool and,
  at the :class:`~repro.chain.blockchain.Blockchain` layer, against mined
  receipts), so a receipt can never be clobbered;
* a same-sender/same-nonce resubmission is treated as **replace-by-fee**: it
  must bump the gas price by at least :data:`REPLACEMENT_BUMP_PCT` percent,
  and then swaps in place (inheriting the original's arrival position);
* signatures are checked at block entry, not here — except when a
  transaction **contests an occupied slot**.  The transaction hash does not
  cover the signature, so a forged copy is a "duplicate" of the genuine
  transaction and a forged same-nonce transaction is a "replacement" of it;
  a conflict is therefore settled between *verified* transactions only: the
  incoming one is verified before it may displace or be called a duplicate
  of anything, and an incumbent that turns out to be forged is evicted with
  no fee bump.  An empty slot (all honest traffic) costs one dict probe.

Selection across senders is by effective fee: a max-heap over the current
head transaction of every sender, keyed ``(-gas_price, arrival, sender)`` so
ties break by submission order and the result is deterministic.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator

from repro.chain.transaction import Transaction
from repro.errors import (
    DuplicateTransactionError,
    InvalidTransactionError,
    UnderpricedReplacementError,
)
from repro.telemetry import metrics as _tm

#: Minimum gas-price increase (percent) for a replace-by-fee to be accepted.
REPLACEMENT_BUMP_PCT = 10

_POOL_ADMITTED = _tm.counter(
    "pds2_mempool_admitted_total",
    "Transactions admitted to the mempool",
    labelnames=("kind",),  # new | replacement
)
_POOL_REJECTED = _tm.counter(
    "pds2_mempool_rejected_total",
    "Transactions rejected at mempool admission",
    labelnames=("reason",),  # duplicate | stale | underpriced | forged
)
_POOL_SELECTED = _tm.counter(
    "pds2_mempool_selected_total", "Transactions selected for block inclusion"
)
_POOL_DEFERRED = _tm.counter(
    "pds2_mempool_deferred_total",
    "Sender chains deferred whole for lack of block-gas space"
)


def _is_genuine(tx: Transaction) -> bool:
    try:
        tx.verify_signature()
    except InvalidTransactionError:
        return False
    return True


class Mempool:
    """Per-sender nonce queues with fee-ordered cross-sender selection."""

    def __init__(self) -> None:
        #: sender -> {nonce: tx}.  Gaps are allowed (a later nonce may arrive
        #: first); only the contiguous run starting at the account's state
        #: nonce is ever selectable.
        self._queues: dict[str, dict[int, Transaction]] = {}
        #: Hashes of every pooled transaction, for O(1) duplicate rejection.
        self._hashes: set[bytes] = set()
        #: (sender, nonce) -> arrival sequence number.  A replace-by-fee
        #: inherits the slot it replaces, so reordering cannot be bought.
        self._arrival: dict[tuple[str, int], int] = {}
        self._counter = 0
        #: Lifetime replace-by-fee admissions (ops-plane gauge source).
        self.replacements = 0
        #: Lifetime whole-chain gas deferrals at selection.
        self.deferrals = 0
        #: Deterministic stats of the most recent :meth:`select` call —
        #: depth before/after, selected/deferred counts, and the arrival
        #: age (in admission-sequence units, so replayable) of every
        #: selected transaction.  The chain observer samples this when it
        #: builds the per-block analytics record.
        self.last_selection: dict = {}

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._hashes)

    def __contains__(self, tx_hash: bytes) -> bool:
        return tx_hash in self._hashes

    def __iter__(self) -> Iterator[Transaction]:
        """All pooled transactions, sender chains in nonce order."""
        for sender in sorted(self._queues):
            queue = self._queues[sender]
            for nonce in sorted(queue):
                yield queue[nonce]

    def next_nonce(self, sender: str, state_nonce: int) -> int:
        """First unused nonce: the end of the contiguous pooled run.

        Walks the sender's queue from ``state_nonce``; stops at the first
        gap.  Correct under replace-by-fee (replacement keeps its nonce slot)
        and after an admission failure left a gap in the chain.
        """
        queue = self._queues.get(sender)
        if not queue:
            return state_nonce
        nonce = state_nonce
        while nonce in queue:
            nonce += 1
        return nonce

    # -- admission -------------------------------------------------------------

    def add(self, tx: Transaction, current_nonce: int) -> None:
        """Admit ``tx`` to the pool.

        Raises :class:`InvalidTransactionError` when the nonce is below the
        account's state nonce.  When the ``(sender, nonce)`` slot is taken
        the conflict is settled between verified transactions: a forged
        ``tx`` raises :class:`InvalidTransactionError`, a forged incumbent
        is evicted and ``tx`` admitted as new; otherwise
        :class:`DuplicateTransactionError` when the incumbent has the same
        hash and :class:`UnderpricedReplacementError` when ``tx`` does not
        bump the gas price by ``REPLACEMENT_BUMP_PCT`` percent.
        """
        if tx.nonce < current_nonce:
            self._reject("stale")
            raise InvalidTransactionError(
                f"stale nonce {tx.nonce}: account {tx.sender} is at "
                f"{current_nonce}"
            )
        queue = self._queues.setdefault(tx.sender, {})
        existing = queue.get(tx.nonce)
        if existing is not None:
            try:
                tx.verify_signature()
            except InvalidTransactionError:
                self._reject("forged")
                raise
            if _is_genuine(existing):
                self._replace(queue, existing, tx)
                return
            # A forged squatter never held the slot: drop it, admit as new.
            self._reject("forged")
            self._hashes.discard(existing.tx_hash)
        queue[tx.nonce] = tx
        self._hashes.add(tx.tx_hash)
        self._arrival[(tx.sender, tx.nonce)] = self._counter
        self._counter += 1
        child = _POOL_ADMITTED.labels(kind="new")
        child.inc()
        _tm.annotate_exemplar(child)

    def _replace(self, queue: dict[int, Transaction], existing: Transaction,
                 tx: Transaction) -> None:
        """Replace-by-fee between two verified transactions of one slot."""
        if existing.tx_hash == tx.tx_hash:
            self._reject("duplicate")
            raise DuplicateTransactionError(
                f"transaction {tx.tx_hash.hex()} is already pending"
            )
        floor = existing.gas_price * (100 + REPLACEMENT_BUMP_PCT)
        if tx.gas_price * 100 < floor:
            self._reject("underpriced")
            raise UnderpricedReplacementError(
                f"replacement for nonce {tx.nonce} needs gas price >= "
                f"{-(-floor // 100)}, got {tx.gas_price}"
            )
        self._hashes.discard(existing.tx_hash)
        queue[tx.nonce] = tx
        self._hashes.add(tx.tx_hash)
        self.replacements += 1
        child = _POOL_ADMITTED.labels(kind="replacement")
        child.inc()
        _tm.annotate_exemplar(child)

    @staticmethod
    def _reject(reason: str) -> None:
        child = _POOL_REJECTED.labels(reason=reason)
        child.inc()
        _tm.annotate_exemplar(child)

    def requeue(self, tx: Transaction) -> None:
        """Return a previously selected transaction to the pool unchanged.

        Used when an earlier transaction of the same sender failed block
        admission: the later nonces are not mineable this block but must not
        be dropped.  Keeps the original arrival position when known.
        """
        queue = self._queues.setdefault(tx.sender, {})
        queue[tx.nonce] = tx
        self._hashes.add(tx.tx_hash)
        if (tx.sender, tx.nonce) not in self._arrival:
            self._arrival[(tx.sender, tx.nonce)] = self._counter
            self._counter += 1

    # -- block selection -------------------------------------------------------

    def select(self, nonce_of: Callable[[str], int],
               block_gas_limit: int) -> list[Transaction]:
        """Pop the best block's worth of transactions, in execution order.

        Senders compete by the gas price of their current *head* transaction
        (highest first, ties by arrival); within a sender, nonces are strictly
        contiguous from the account's state nonce.  Packing reserves each
        transaction's full ``gas_limit`` (worst case must fit the block); a
        head that does not fit defers the sender's **whole chain** to a later
        block — later nonces are never sent ahead to die on a nonce check.
        """
        depth_before = len(self._hashes)
        deferred = 0
        ages: list[int] = []
        # One heap entry per sender with a selectable head.
        heads: list[tuple[int, int, str, int]] = []
        for sender, queue in self._queues.items():
            nonce = nonce_of(sender)
            tx = queue.get(nonce)
            if tx is not None:
                heads.append(
                    (-tx.gas_price, self._arrival[(sender, nonce)],
                     sender, nonce)
                )
        heapq.heapify(heads)
        selected: list[Transaction] = []
        gas_reserved = 0
        while heads:
            _, _, sender, nonce = heapq.heappop(heads)
            queue = self._queues[sender]
            tx = queue[nonce]
            if gas_reserved + tx.gas_limit > block_gas_limit:
                # Defer this sender entirely: sending nonce n+1 without n
                # is what used to drop whole chains with "bad nonce".
                deferred += 1
                self.deferrals += 1
                _POOL_DEFERRED.inc()
                _tm.annotate_exemplar(_POOL_DEFERRED)
                continue
            gas_reserved += tx.gas_limit
            selected.append(tx)
            del queue[nonce]
            self._hashes.discard(tx.tx_hash)
            arrival = self._arrival.pop((sender, nonce), None)
            if arrival is not None:
                ages.append(self._counter - arrival)
            successor = queue.get(nonce + 1)
            if successor is not None:
                heapq.heappush(
                    heads,
                    (-successor.gas_price,
                     self._arrival[(sender, nonce + 1)], sender, nonce + 1)
                )
            elif not queue:
                del self._queues[sender]
        _POOL_SELECTED.inc(len(selected))
        _tm.annotate_exemplar(_POOL_SELECTED)
        self.last_selection = {
            "depth_before": depth_before,
            "depth_after": len(self._hashes),
            "selected": len(selected),
            "deferred": deferred,
            "gas_reserved": gas_reserved,
            "ages": ages,
            "replacements_total": self.replacements,
            "deferrals_total": self.deferrals,
        }
        return selected
