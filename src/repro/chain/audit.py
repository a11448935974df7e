"""Continuous chain invariant auditing with forensic bundles.

A :class:`ChainAuditor` hooks every block commit and re-derives the
conservation laws the ledger is supposed to enforce by construction:

* native value conservation — fees are transfers, so the sum of all
  balances is constant across a block;
* nonce monotonicity — nonces never move backwards, and each sender's
  nonce advances by exactly its mined-transaction count;
* header consistency — the sealed ``state_root`` matches the auditor's own
  root of the live world state (:meth:`ChainAuditor.state_root`), which
  shares nothing with the chain's incremental root: the chain trusts its
  write hooks to say what changed, the auditor fingerprints every
  contract's storage every block and re-encodes the ones whose value
  moved (so every block is also a differential test of the chain's root,
  and storage written behind the VM's back is caught on the block it
  happens), the ``tx_root`` matches the block body, and the header's gas
  both matches the receipt sum and respects the limit;
* receipt completeness — every mined transaction has a receipt pinned to
  this block;
* mempool/chain disjointness — a mined hash never stays pooled;
* per-contract invariants — each deployed contract's
  :meth:`~repro.chain.contract.Contract.audit_invariants` (ERC-20 supply,
  ERC-721 ownership/balance agreement, workload escrow backing).

On a violation the auditor captures a **forensic bundle**: the offending
block, pre/post balance diffs with the accounts no mined transaction can
explain, a mempool snapshot, and the most recent trace spans — then emits
a ``chain.audit.violation`` span and (in strict mode) raises
:class:`~repro.errors.ChainAuditError`.  The default is record-only so an
always-on auditor cannot mask the original failure.

The module also provides the tamper seam the resilience harness uses:
:func:`install_state_corruption` flips one bit of one balance right after
a chosen block seals — precisely the silent corruption only this auditor
can catch (``FaultKind.CORRUPT_STATE`` in the fault-plan DSL).
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass
from hashlib import blake2b
from typing import Any, Optional

from repro.chain.block import Block
from repro.chain.transaction import CREATE
from repro.crypto.hashing import keccak256
from repro.errors import ChainAuditError
from repro.telemetry import metrics as _tm
from repro.telemetry.tracing import tracer as _tracer
from repro.utils.serialization import canonical_json_bytes

_AUDIT_BLOCKS = _tm.counter(
    "pds2_chain_audit_blocks_total",
    "Blocks checked by the continuous invariant auditor",
)
_AUDIT_VIOLATIONS = _tm.counter(
    "pds2_chain_audit_violations_total",
    "Invariant violations found at block commit, by kind",
    labelnames=("kind",),
)


def _fingerprint(storage: dict) -> Optional[bytes]:
    """A type-strict digest of a storage tree, or None when it has none.

    Pickle walks the tree in C and writes every value with its type, so
    ``1``, ``True`` and ``1.0`` — equal to ``==``, three different canonical
    encodings — have three different fingerprints, as do ``0.0`` and
    ``-0.0``.  Unpickling the bytes would rebuild the tree, so equal
    fingerprints mean equal trees and equal encodings.  The converse does
    not hold (key order, object sharing, ``numpy.int64(1)`` for ``1``), and
    does not need to: a fingerprint that moved for no reason costs one
    encoding.
    """
    try:
        return blake2b(pickle.dumps(storage, pickle.HIGHEST_PROTOCOL),
                       digest_size=32).digest()
    except Exception:  # noqa: BLE001 - whatever pickle refused, encode it
        return None


@dataclass
class Violation:
    """One violated invariant at one block commit."""

    block: int
    kind: str
    detail: str
    #: The account or contract address the violation points at, when one
    #: can be named (the forensic bundle's "suspects" complement this).
    account: str = ""

    def to_dict(self) -> dict:
        return {"block": self.block, "kind": self.kind,
                "detail": self.detail, "account": self.account}


#: How many recent finished spans a forensic bundle captures.
BUNDLE_SPAN_WINDOW = 25
#: Which bit of the victim's balance :func:`install_state_corruption` flips.
CORRUPTED_BIT = 20


class ChainAuditor:
    """Re-checks conservation invariants at every block commit."""

    def __init__(self, chain: Any):
        self.chain = chain
        #: When set to True a violation raises :class:`ChainAuditError`;
        #: the default records it (counters, bundle, span event) and lets
        #: the chain continue, so auditing never masks the original bug.
        self.strict = False
        #: Directory forensic bundles are written to (None = memory only).
        self.forensics_dir: Optional[str] = None
        self.blocks_checked = 0
        self.violations: list[Violation] = []
        self.bundles: list[dict] = []
        #: address -> (storage fingerprint, the contract's leaf of the state
        #: root) as of the last :meth:`state_root`.
        self._leaves: dict[str, tuple[Optional[bytes], bytes]] = {}

    # -- the auditor's own state root ---------------------------------------

    def state_root(self) -> bytes:
        """The root of the live world state, by the auditor's own means.

        The value ``WorldState.state_root`` commits to, built without asking
        the state what changed: every contract's storage is fingerprinted
        (:func:`_fingerprint`) on every call, and a contract is canonically
        encoded and its leaf re-hashed when its fingerprint is not the one
        its kept leaf was made under.  Balances and nonces are encoded and
        hashed on every call.
        """
        state = self.chain.state
        kept, leaves = self._leaves, {}
        for address, contract in sorted(state.contracts.items()):
            mark = _fingerprint(contract.storage)
            leaf = kept.get(address)
            if leaf is None or mark is None or leaf[0] != mark:
                # The one-key document without its braces: `"address":{...}`.
                leaf = (mark, keccak256(canonical_json_bytes(
                    {address: contract.storage})[1:-1]))
            leaves[address] = leaf
        # Contracts no longer deployed leave with the old dict.
        self._leaves = leaves
        balances = keccak256(canonical_json_bytes(
            {k: v for k, v in state.balances.items() if v}))
        nonces = keccak256(canonical_json_bytes(state.nonces))
        return keccak256(balances + nonces
                         + b"".join(leaf for _, leaf in leaves.values()))

    # -- lifecycle hooks (called by Blockchain.mine_block) ------------------

    def pre_block(self) -> dict:
        """Snapshot the audit-relevant pre-state before a block executes."""
        state = self.chain.state
        return {
            "balances": dict(state.balances),
            "nonces": dict(state.nonces),
            "native_sum": sum(state.balances.values()),
        }

    def post_block(self, block: Any, execution: Any,
                   pre: dict) -> list[Violation]:
        """Check every invariant against the sealed block; returns new
        violations (empty on a healthy block)."""
        header = block.header
        number = header.number
        state = self.chain.state
        found: list[Violation] = []

        def flag(kind: str, detail: str, account: str = "") -> None:
            found.append(Violation(number, kind, detail, account))

        # Native value conservation: every in-block movement (transfers,
        # gas fees) is account-to-account, so the total supply is fixed.
        post_sum = sum(state.balances.values())
        if post_sum != pre["native_sum"]:
            delta = post_sum - pre["native_sum"]
            flag("conservation",
                 f"native value drifted by {delta:+d} across block {number}")

        # Nonce monotonicity, and exact advancement for mined senders.
        mined: dict[str, int] = {}
        for tx in block.transactions:
            mined[tx.sender] = mined.get(tx.sender, 0) + 1
        for account, before in pre["nonces"].items():
            after = state.nonces.get(account, 0)
            if after < before:
                flag("nonce",
                     f"nonce of {account} moved backwards: "
                     f"{before} -> {after}", account)
        for sender, count in mined.items():
            before = pre["nonces"].get(sender, 0)
            after = state.nonces.get(sender, 0)
            if after != before + count:
                flag("nonce",
                     f"{sender} mined {count} tx(s) but its nonce went "
                     f"{before} -> {after}", sender)

        # Header consistency against recomputation.
        if header.state_root != self.state_root():
            flag("state_root",
                 f"block {number} header state_root does not match the "
                 f"recomputed world-state root")
        if header.tx_root != Block.compute_tx_root(block.transactions):
            flag("tx_root",
                 f"block {number} header tx_root does not match its body")

        # Receipt completeness and gas accounting.
        receipt_gas = 0
        for tx in block.transactions:
            receipt = self.chain._receipts.get(tx.tx_hash)
            if receipt is None or receipt.block_number != number:
                flag("receipts",
                     f"mined tx {tx.tx_hash.hex()[:16]} has no receipt "
                     f"pinned to block {number}", tx.sender)
            else:
                receipt_gas += receipt.gas_used
        if receipt_gas != header.gas_used:
            flag("receipts",
                 f"receipts sum to {receipt_gas} gas, header claims "
                 f"{header.gas_used}")
        if header.gas_used > self.chain.block_gas_limit:
            flag("gas_limit",
                 f"block {number} used {header.gas_used} gas over the "
                 f"{self.chain.block_gas_limit} limit")

        # Mempool/chain hash disjointness.
        for tx in block.transactions:
            if tx.tx_hash in self.chain.mempool:
                flag("mempool_overlap",
                     f"mined tx {tx.tx_hash.hex()[:16]} is still pooled",
                     tx.sender)

        # Per-contract invariants (token supply, deed ownership, escrow).
        for address in sorted(state.contracts):
            contract = state.contracts[address]
            try:
                problems = contract.audit_invariants(state)
            except Exception as exc:  # a broken check is itself a finding
                problems = [f"invariant check crashed: "
                            f"{type(exc).__name__}: {exc}"]
            for problem in problems:
                flag("contract_invariant",
                     f"{type(contract).__name__}@{address}: {problem}",
                     address)

        self.blocks_checked += 1
        _AUDIT_BLOCKS.inc()
        if found:
            self._report(block, found, pre)
        return found

    # -- violation handling -------------------------------------------------

    def _report(self, block: Any, found: list[Violation],
                pre: dict) -> None:
        self.violations.extend(found)
        for violation in found:
            child = _AUDIT_VIOLATIONS.labels(kind=violation.kind)
            child.inc()
            _tm.annotate_exemplar(child)
        bundle = self._forensic_bundle(block, found, pre)
        self.bundles.append(bundle)
        self._write_bundle(bundle)
        with _tracer().span(
            "chain.audit.violation", height=block.header.number,
            violations=len(found),
            kinds=",".join(sorted({v.kind for v in found})),
            suspects=",".join(bundle["suspect_accounts"][:4]),
        ):
            pass
        if self.strict:
            first = "; ".join(v.detail for v in found[:3])
            raise ChainAuditError(
                f"{len(found)} invariant violation(s) at block "
                f"{block.header.number}: {first}"
            )

    def _forensic_bundle(self, block: Any, found: list[Violation],
                         pre: dict) -> dict:
        state = self.chain.state
        touched = {block.header.validator}
        for tx in block.transactions:
            touched.add(tx.sender)
            if tx.to is not CREATE and tx.to:
                touched.add(tx.to)
            receipt = self.chain._receipts.get(tx.tx_hash)
            if receipt is not None and receipt.contract_address:
                touched.add(receipt.contract_address)
            if receipt is not None:
                for log in receipt.logs:
                    touched.add(log.address)
        diffs: dict[str, dict] = {}
        unexplained: list[str] = []
        for account in sorted(set(pre["balances"]) | set(state.balances)):
            before = pre["balances"].get(account, 0)
            after = state.balances.get(account, 0)
            if before == after:
                continue
            was_touched = account in touched
            diffs[account] = {"pre": before, "post": after,
                              "delta": after - before,
                              "touched": was_touched}
            if not was_touched:
                unexplained.append(account)
        return {
            "block": {
                "number": block.header.number,
                "timestamp": block.header.timestamp,
                "validator": block.header.validator,
                "gas_used": block.header.gas_used,
                "txs": len(block.transactions),
                "state_root": block.header.state_root.hex(),
                "tx_root": block.header.tx_root.hex(),
            },
            "violations": [v.to_dict() for v in found],
            #: Accounts whose balance changed without any mined tx
            #: touching them — under CORRUPT_STATE this names the victim.
            "suspect_accounts": unexplained,
            "account_diffs": diffs,
            "mempool": {
                "depth": len(self.chain.mempool),
                "hashes": sorted(tx.tx_hash.hex()
                                 for tx in self.chain.mempool),
            },
            "recent_spans": [
                span.to_dict() for span
                in list(_tracer().finished)[-BUNDLE_SPAN_WINDOW:]
            ],
        }

    def _write_bundle(self, bundle: dict) -> None:
        if not self.forensics_dir:
            return
        os.makedirs(self.forensics_dir, exist_ok=True)
        path = os.path.join(self.forensics_dir,
                            f"block-{bundle['block']['number']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, sort_keys=True, indent=2)
            fh.write("\n")

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict:
        """The ``audit.json`` shape the run recorder and CLI consume."""
        return {
            "blocks_checked": self.blocks_checked,
            "violation_count": len(self.violations),
            "violations": [v.to_dict() for v in self.violations],
            "strict": self.strict,
        }


# ---------------------------------------------------------------------------
# Fault seam: seeded single-slot state corruption at a block boundary
# ---------------------------------------------------------------------------


def install_state_corruption(chain: Any, block_number: int,
                             seed: int = 0) -> None:
    """Arm a tamper hook that bit-flips one balance after a block seals.

    The victim is drawn deterministically from ``(seed, block_number)``
    among funded accounts the block's transactions did *not* touch, so the
    corruption is invisible to every receipt and header — exactly the
    failure mode only the auditor's conservation sweep can see.
    """

    def tamper(chain_: Any, block: Any) -> Optional[str]:
        if block.header.number != block_number:
            return None
        state = chain_.state
        touched = {tx.sender for tx in block.transactions}
        touched.add(block.header.validator)
        for tx in block.transactions:
            if tx.to is not CREATE and tx.to:
                touched.add(tx.to)
        candidates = sorted(account for account, value
                            in state.balances.items()
                            if value and account not in touched)
        if not candidates:
            candidates = sorted(account for account, value
                                in state.balances.items() if value)
        if not candidates:
            return None
        index = (seed * 2654435761 + block_number * 40503) % len(candidates)
        victim = candidates[index]
        state.balances[victim] ^= (1 << CORRUPTED_BIT)
        span = _tracer().current
        if span is not None:
            span.set_attribute("fault_kind", "corrupt_state")
            span.set_attribute("fault_point", "chain.block_boundary")
            span.set_attribute("fault_target", victim)
        return victim

    chain.tamper_hooks.append(tamper)


def install_fault_plan(chain: Any, plan: Any, seed: int) -> int:
    """Arm every ``corrupt_state`` fault of a resilience FaultPlan.

    Duck-typed on purpose: importing :mod:`repro.core.resilience` here
    would close a chain -> core -> chain import cycle.  ``Fault.target``
    carries the boundary as ``block:<n>`` (missing/unparsable defaults to
    block 1); ``times`` arms consecutive boundaries.  Returns the number
    of hooks installed, so callers can assert the plan actually bound.
    """
    installed = 0
    for fault in getattr(plan, "faults", ()):
        kind = getattr(fault, "kind", "")
        if getattr(kind, "value", kind) != "corrupt_state":
            continue
        target = getattr(fault, "target", "") or "block:1"
        try:
            block_number = int(str(target).split(":", 1)[1])
        except (IndexError, ValueError):
            block_number = 1
        for occurrence in range(max(1, int(getattr(fault, "times", 1)))):
            install_state_corruption(chain, block_number + occurrence,
                                     seed=seed + occurrence)
            installed += 1
    return installed
