"""Block execution engines: serial and optimistic-parallel application.

The parallel engine applies non-conflicting transactions concurrently while
guaranteeing results **byte-identical** to serial execution:

1. *Predicted* access paths per transaction (sender account, target account,
   the target contract's :meth:`~repro.chain.contract.Contract.access_hints`
   or, absent hints, the whole contract) feed a union-find that groups
   potentially conflicting transactions.  Same-sender transactions always
   share a group via ``("acct", sender)``, preserving nonce order.
2. Groups are pinned to execution lanes by account-range sharding
   (:func:`~repro.chain.state.shard_of` of the group's anchor address) and
   run on a thread pool — serial in block order within a group, concurrent
   across lanes.  Each transaction runs under a per-thread
   :class:`~repro.chain.state.AccessTracker` (and, as on the serial engine,
   the VM's per-transaction write journal).
3. The *recorded* access sets are validated after the fact: any cross-group
   pair of paths where one is a prefix of the other and at least one side
   wrote is a conflict.  Prediction is best-effort; this validation is what
   correctness rests on.  On conflict — or any unexpected exception, or any
   transaction reading the validator's account — the engine restores the
   block-start snapshot and re-runs everything serially.
4. Validator fees are deferred into a per-transaction fee sink and credited
   in serial commit order at block end (an inline credit would conflict
   every transaction on the validator account).  Deferral is invisible
   unless someone *reads* the validator account mid-block, which is exactly
   the fallback trigger above.

Both engines implement the same admission policy: a transaction that fails
block admission (bad nonce, unaffordable) is rejected with an error string,
and the same sender's **later transactions are deferred back to the pool**
instead of being run into certain ``bad nonce`` failures — the fix for the
chain-drop bug the flat pending list had.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from repro.chain.state import AccessTracker, WorldState, shard_of
from repro.chain.transaction import CREATE, Receipt, Transaction
from repro.chain.vm import VM, BlockContext
from repro.errors import ChainError
from repro.telemetry import metrics as _tm

#: Default number of execution lanes for the parallel engine.
DEFAULT_LANES = 4

_PARALLEL_BLOCKS = _tm.counter(
    "pds2_chain_parallel_blocks_total",
    "Blocks executed by the parallel engine, by outcome",
    labelnames=("outcome",),  # parallel | fallback
)
_PARALLEL_FALLBACKS = _tm.counter(
    "pds2_chain_parallel_fallbacks_total",
    "Parallel executions replayed serially, by reason",
    labelnames=("reason",),  # conflict | exception | validator_read
)
_PARALLEL_GROUPS = _tm.histogram(
    "pds2_chain_parallel_groups",
    "Independent conflict groups per parallel block",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128),
)
_SERIAL_CAUSES = _tm.counter(
    "pds2_chain_serial_causes_total",
    "Blocks the parallel engine ran serially, by attributed cause",
    # small_block | no_hints | predicted_conflict | conflict | exception
    # | validator_read
    labelnames=("cause",),
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
    #: Conflict groups the parallel engine found (0 for the serial engine).
    groups: int = 0
    #: True when a parallel run was abandoned and replayed serially.
    fell_back: bool = False
    #: Why this block ran serially, or "" when it ran parallel.  One of
    #: ``small_block`` (too few txs / one lane), ``no_hints`` (predicted
    #: collapse into one group driven by a hint-less contract),
    #: ``predicted_conflict`` (one group despite hints), ``conflict``
    #: (recorded-set conflict after an optimistic run), ``exception``
    #: (lane raised outside the VM's revert envelope), ``validator_read``
    #: (a tx read the validator account mid-block, so fee deferral would
    #: be visible).
    serial_cause: str = ""
    #: Lane -> number of transactions executed on it (parallel runs only).
    lane_txs: dict[int, int] = field(default_factory=dict)
    #: Predicted-conflict merge keys ("kind:address") -> how many group
    #: merges that key caused.  This is the conflict matrix the ops plane
    #: aggregates to show which contracts/accounts cost parallelism.
    conflict_keys: dict[str, int] = field(default_factory=dict)
    #: Transactions whose target contract supplied slot-level access hints.
    hinted_txs: int = 0
    #: Transactions grouped on a whole-contract path for lack of hints.
    unhinted_txs: int = 0


# ---------------------------------------------------------------------------
# Serial engine
# ---------------------------------------------------------------------------


def execute_serial(vm: VM, state: WorldState, block: BlockContext,
                   txs: list[Transaction]) -> BlockExecution:
    """Apply ``txs`` in order on the calling thread."""
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


# ---------------------------------------------------------------------------
# Conflict grouping (predicted) and validation (recorded)
# ---------------------------------------------------------------------------


def _anchor_address(tx: Transaction) -> str:
    """The address a transaction is 'about', for lane sharding."""
    if tx.to is CREATE:
        return VM.contract_address_for(tx.sender, tx.nonce)
    return tx.to or tx.sender


def predicted_paths(state: WorldState, tx: Transaction,
                    meta: Optional[dict] = None) -> set[tuple]:
    """Best-effort prediction of the state paths ``tx`` may touch.

    Used only for grouping; the recorded sets are validated afterwards, so
    an optimistic (too narrow) prediction costs a serial replay, never
    correctness.  When ``meta`` is given it receives ``{"hinted": bool}`` —
    False exactly when the target contract declared no
    :meth:`~repro.chain.contract.Contract.access_hints` for this call and
    grouping had to assume the whole contract.
    """
    if meta is not None:
        meta["hinted"] = True
    paths: set[tuple] = {("acct", tx.sender)}
    if tx.to is CREATE:
        address = VM.contract_address_for(tx.sender, tx.nonce)
        paths.update(
            {("acct", address), ("code", address), ("store", address)}
        )
        return paths
    paths.add(("acct", tx.to))
    contract = state.contracts.get(tx.to)
    if contract is None or not tx.payload:
        return paths
    paths.add(("code", tx.to))
    method = tx.payload.get("method")
    args = tx.payload.get("args", {})
    hints = None
    if isinstance(method, str) and isinstance(args, dict):
        try:
            hints = type(contract).access_hints(method, args, tx.sender)
        except Exception:
            hints = None
    if hints is None:
        paths.add(("store", tx.to))
        if meta is not None:
            meta["hinted"] = False
    else:
        for hint in hints:
            paths.add(("store", tx.to) + tuple(hint))
    return paths


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Lower index wins so group identity follows block order.
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _merge_key(path: tuple) -> str:
    """Human-readable conflict-matrix key for a predicted-path merge."""
    return f"{path[0]}:{path[1]}" if len(path) > 1 else str(path[0])


def _group_transactions(state: WorldState, txs: list[Transaction],
                        stats: Optional[dict] = None) -> list[list[int]]:
    """Partition tx indices into predicted conflict groups (block order).

    When ``stats`` is given it receives ``hinted``/``unhinted`` tx counts
    and ``merges``: a ``{merge key: count}`` map of which contract/account
    paths actually caused two groups to fuse — the data behind the ops
    plane's conflict matrix.
    """
    uf = _UnionFind(len(txs))
    exact: dict[tuple, int] = {}
    cover: dict[tuple, set[int]] = {}
    merges: dict[str, int] = {}
    hinted = unhinted = 0

    def merge(index: int, holder: int, path: tuple) -> None:
        if uf.find(index) != uf.find(holder):
            key = _merge_key(path)
            merges[key] = merges.get(key, 0) + 1
        uf.union(index, holder)

    for index, tx in enumerate(txs):
        meta: dict = {}
        # Sorted so the path that gets *credited* with a merge is stable
        # across processes (set order varies with hash randomization);
        # grouping itself is order-independent, attribution is not.
        paths = sorted(predicted_paths(state, tx, meta))
        if meta.get("hinted", True):
            hinted += 1
        else:
            unhinted += 1
        for path in paths:
            # Transactions whose full predicted path is a prefix of ours.
            for cut in range(1, len(path) + 1):
                holder = exact.get(path[:cut])
                if holder is not None:
                    merge(index, holder, path[:cut])
            # Transactions with a longer predicted path underneath ours.
            for holder in cover.get(path, ()):
                merge(index, holder, path)
        for path in paths:
            exact[path] = index
            for cut in range(1, len(path)):
                cover.setdefault(path[:cut], set()).add(index)
    if stats is not None:
        stats["hinted"] = hinted
        stats["unhinted"] = unhinted
        stats["merges"] = merges
    groups: dict[int, list[int]] = {}
    for index in range(len(txs)):
        groups.setdefault(uf.find(index), []).append(index)
    return [groups[root] for root in sorted(groups)]


def _recorded_sets_conflict(
        per_group: list[list[tuple[tuple, bool]]]) -> bool:
    """True when two groups' *recorded* access sets overlap with a write.

    Each entry is ``(path, wrote)``; overlap means one path is a prefix of
    the other (or equal).  Single pass with check-then-insert over an exact
    index (full paths) and a cover index (every strict prefix).
    """
    exact: dict[tuple, dict[int, bool]] = {}
    cover: dict[tuple, dict[int, bool]] = {}
    for group_id, accesses in enumerate(per_group):
        for path, wrote in accesses:
            for cut in range(1, len(path) + 1):
                holders = exact.get(path[:cut])
                if holders:
                    for other, other_wrote in holders.items():
                        if other != group_id and (wrote or other_wrote):
                            return True
            holders = cover.get(path)
            if holders:
                for other, other_wrote in holders.items():
                    if other != group_id and (wrote or other_wrote):
                        return True
        for path, wrote in accesses:
            slot = exact.setdefault(path, {})
            slot[group_id] = slot.get(group_id, False) or wrote
            for cut in range(1, len(path)):
                slot = cover.setdefault(path[:cut], {})
                slot[group_id] = slot.get(group_id, False) or wrote
    return False


# ---------------------------------------------------------------------------
# Parallel engine
# ---------------------------------------------------------------------------


class _FallbackNeeded(Exception):
    """Internal: abandon the parallel attempt and replay serially."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _serial_cause(cause: str) -> None:
    child = _SERIAL_CAUSES.labels(cause=cause)
    child.inc()
    _tm.annotate_exemplar(child)


def _annotate_grouping(result: BlockExecution, grouping: dict) -> None:
    result.conflict_keys = grouping.get("merges", {})
    result.hinted_txs = grouping.get("hinted", 0)
    result.unhinted_txs = grouping.get("unhinted", 0)


def execute_parallel(vm: VM, state: WorldState, block: BlockContext,
                     txs: list[Transaction], *,
                     lanes: int = DEFAULT_LANES) -> BlockExecution:
    """Apply ``txs`` concurrently where the conflict analysis allows.

    Commit order (receipts, fee credits, inclusion order) is the serial
    block order regardless of execution interleaving; any doubt about
    equivalence triggers a snapshot-restore and a serial replay.
    """
    if len(txs) < 2 or lanes <= 1:
        result = execute_serial(vm, state, block, txs)
        if txs:
            result.serial_cause = "small_block"
            _serial_cause(result.serial_cause)
        return result
    grouping: dict = {}
    groups = _group_transactions(state, txs, grouping)
    if len(groups) < 2:
        # Everything predicted-conflicts into one group: nothing to overlap.
        result = execute_serial(vm, state, block, txs)
        result.groups = 1
        # A hint-less contract widens its predictions to the whole
        # contract, which is the usual reason a block collapses; blame it
        # only when such a tx is actually present.
        result.serial_cause = ("no_hints" if grouping.get("unhinted")
                               else "predicted_conflict")
        _serial_cause(result.serial_cause)
        _annotate_grouping(result, grouping)
        return result
    snapshot = state.snapshot()
    try:
        outcomes, trackers, lane_txs = _run_groups(
            vm, state, block, txs, groups, lanes=lanes,
        )
        _validate(trackers, groups, block.validator)
    except _FallbackNeeded as fallback:
        state.restore(snapshot)
        child = _PARALLEL_FALLBACKS.labels(reason=fallback.reason)
        child.inc()
        _tm.annotate_exemplar(child)
        _PARALLEL_BLOCKS.labels(outcome="fallback").inc()
        result = execute_serial(vm, state, block, txs)
        result.fell_back = True
        result.groups = len(groups)
        result.serial_cause = fallback.reason
        _serial_cause(result.serial_cause)
        _annotate_grouping(result, grouping)
        return result
    # Commit: receipts and fees in serial block order.
    result = BlockExecution(groups=len(groups))
    result.lane_txs = lane_txs
    _annotate_grouping(result, grouping)
    for index, tx in enumerate(txs):
        kind, payload = outcomes[index]
        if kind == "ok":
            receipt, fee = payload
            state.credit(block.validator, fee)
            result.receipts[tx.tx_hash] = receipt
            result.included.append(tx)
            result.gas_used += receipt.gas_used
        elif kind == "rejected":
            result.rejected.append((tx, payload))
        else:
            result.deferred.append(tx)
    _PARALLEL_BLOCKS.labels(outcome="parallel").inc()
    _PARALLEL_GROUPS.observe(len(groups))
    return result


def _run_groups(vm: VM, state: WorldState, block: BlockContext,
                txs: list[Transaction], groups: list[list[int]], *,
                lanes: int) -> tuple[dict, dict, dict]:
    """Execute groups on sharded lanes.

    Returns per-tx outcomes, per-tx access trackers, and the lane
    occupancy map (lane -> tx count) the attribution report renders.
    """
    lane_work: dict[int, list[list[int]]] = {}
    for group in groups:
        lane = shard_of(_anchor_address(txs[group[0]]), lanes)
        lane_work.setdefault(lane, []).append(group)
    lane_txs = {lane: sum(len(group) for group in lane_groups)
                for lane, lane_groups in sorted(lane_work.items())}
    outcomes: dict[int, tuple] = {}
    trackers: dict[int, AccessTracker] = {}

    def run_lane(lane_groups: list[list[int]]) -> None:
        for group in lane_groups:
            failed_senders: set[str] = set()
            for index in group:
                tx = txs[index]
                if tx.sender in failed_senders:
                    outcomes[index] = ("deferred", None)
                    continue
                tracker = AccessTracker()
                state.begin_tx(tracker)
                fees: list[int] = []
                try:
                    receipt = vm.apply_transaction(
                        state, block, tx, fee_sink=fees,
                    )
                except ChainError as exc:
                    outcomes[index] = ("rejected", str(exc))
                    failed_senders.add(tx.sender)
                finally:
                    state.end_tx()
                trackers[index] = tracker
                if index not in outcomes:
                    outcomes[index] = ("ok", (receipt, fees[0] if fees else 0))

    with ThreadPoolExecutor(max_workers=min(lanes, len(lane_work))) as pool:
        futures = [pool.submit(run_lane, work)
                   for work in lane_work.values()]
        errors = [f.exception() for f in futures]
    if any(errors):
        raise _FallbackNeeded("exception")
    return outcomes, trackers, lane_txs


def _validate(trackers: dict[int, AccessTracker], groups: list[list[int]],
              validator: str) -> None:
    """Raise :class:`_FallbackNeeded` unless parallel == serial provably."""
    validator_acct = ("acct", validator)
    per_group: list[list[tuple[tuple, bool]]] = []
    for group in groups:
        accesses: list[tuple[tuple, bool]] = []
        for index in group:
            tracker = trackers.get(index)
            if tracker is None:
                continue
            if validator_acct in tracker.reads:
                # Fee deferral changes what a mid-block read of the
                # validator's balance sees; only serial is faithful then.
                raise _FallbackNeeded("validator_read")
            for path in tracker.writes:
                accesses.append((path, True))
            for path in tracker.reads - tracker.writes:
                accesses.append((path, False))
        per_group.append(accesses)
    if _recorded_sets_conflict(per_group):
        raise _FallbackNeeded("conflict")
