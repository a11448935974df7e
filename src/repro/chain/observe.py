"""Per-block analytics and the chain ops plane.

Counterpart of the batch control plane's ``trace_ops``: every sealed block
becomes one deterministic, JSON-safe record — gas utilization, fee
percentiles (through the same histogram-quantile math the telemetry
registry exports), transaction mix, the mempool's selection-time gauges,
batch-signature bisection stats, and how many transactions were rejected or
deferred at admission.  Records carry no wall-clock values, so matched
seeds produce byte-identical ``blocks.jsonl`` files.

The records power two consumers:

* :func:`render_chain_top` — the fixed-width panel behind
  ``python -m repro chain top [--watch]``.
* :class:`ChainRunRecorder` / :func:`read_chain_run` — a crash-tolerant
  run directory (``blocks.jsonl`` is append-only and read back through the
  same torn-tail reader as the batch journals).
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any, Callable, Optional, Sequence

from repro.chain.transaction import CREATE, Transaction
from repro.errors import ChainError
from repro.telemetry import metrics as _tm
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import tracer as _tracer
from repro.utils.serialization import append_jsonl, read_jsonl

#: Bumped when the block-record shape changes (readers stay tolerant).
RECORD_VERSION = 2

#: How many block records an observer keeps in memory (the tail; sinks
#: receive every record, so a run directory holds them all).
MAX_BLOCK_RECORDS = 1024

#: Gas-price buckets for per-block fee percentiles.
FEE_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

_BLOCK_UTILIZATION = _tm.histogram(
    "pds2_chain_block_utilization_pct",
    "Percent of the block gas limit used per sealed block",
    buckets=(5, 10, 25, 50, 75, 90, 100),
)
_POOL_DEPTH = _tm.gauge(
    "pds2_mempool_depth",
    "Transactions left pooled after the latest block selection",
)
_SELECTED_AGE = _tm.histogram(
    "pds2_mempool_selected_age",
    "Age of selected transactions, in admission-sequence units",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
)


def _tx_kind(tx: Transaction) -> str:
    if tx.to is CREATE:
        return "deploy"
    return "call" if tx.payload else "transfer"


def _fee_quantiles(prices: list[int]) -> dict[str, float]:
    """p50/p95/p99 of gas prices via the registry's histogram quantiles.

    Runs on a *local* registry (the trace_ops rule: report math never
    mutates the process registry).
    """
    registry = MetricsRegistry()
    hist = registry.histogram("fees", buckets=FEE_BUCKETS)
    for price in prices:
        hist.observe(price)
    return {key: round(value, 3)
            for key, value in hist.child().quantiles().items()}


class ChainObserver:
    """Builds one analytics record per sealed block and feeds the sinks."""

    def __init__(self, chain: Any):
        self.chain = chain
        self.records: deque[dict] = deque(maxlen=MAX_BLOCK_RECORDS)
        #: Callables invoked with each finished record (the run recorder
        #: registers here; the chain layer stays storage-agnostic).
        self.sinks: list[Callable[[dict], None]] = []

    def record_block(self, block: Any, execution: Any, selection: dict,
                     verify_stats: dict) -> dict:
        header = block.header
        gas_limit = self.chain.block_gas_limit
        utilization = (100.0 * header.gas_used / gas_limit) if gas_limit \
            else 0.0
        mix = {"transfer": 0, "call": 0, "deploy": 0}
        prices: list[int] = []
        for tx in block.transactions:
            mix[_tx_kind(tx)] += 1
            prices.append(tx.gas_price)
        record = {
            "v": RECORD_VERSION,
            "number": header.number,
            "timestamp": header.timestamp,
            "validator": header.validator,
            "txs": len(block.transactions),
            "gas_used": header.gas_used,
            "gas_limit": gas_limit,
            "utilization_pct": round(utilization, 3),
            "fees": _fee_quantiles(prices) if prices else {},
            "tx_mix": mix,
            "mempool": dict(selection),
            "verify": dict(verify_stats),
            "execution": {
                "rejected": len(execution.rejected),
                "deferred": len(execution.deferred),
            },
        }
        _BLOCK_UTILIZATION.observe(utilization)
        _POOL_DEPTH.set(selection.get("depth_after", len(self.chain.mempool)))
        for age in selection.get("ages", ()):
            _SELECTED_AGE.observe(age)
        with _tracer().span(
            "block.observe", height=header.number,
            transactions=len(block.transactions),
            utilization_pct=round(utilization, 1),
        ):
            pass
        self.records.append(record)
        for sink in tuple(self.sinks):
            sink(record)
        return record


# ---------------------------------------------------------------------------
# Rendering: python -m repro chain top
# ---------------------------------------------------------------------------

_WIDTH = 74


def render_chain_top(records: Sequence[dict],
                     audit: Optional[dict] = None) -> str:
    """Fixed-width ops panel over a chain run's block records."""
    rule = "-" * _WIDTH
    lines = ["PDS2 CHAIN — ops plane", rule]
    if not records:
        lines.append("  (no blocks recorded yet)")
        lines.append(rule)
        return "\n".join(lines)
    registry = MetricsRegistry()
    util_hist = registry.histogram("util", buckets=(5, 10, 25, 50, 75, 90,
                                                    100))
    gas_total = tx_total = 0
    mix = {"transfer": 0, "call": 0, "deploy": 0}
    for record in records:
        util_hist.observe(record.get("utilization_pct", 0.0))
        gas_total += record.get("gas_used", 0)
        tx_total += record.get("txs", 0)
        for kind, count in record.get("tx_mix", {}).items():
            mix[kind] = mix.get(kind, 0) + count
    util = util_hist.child().quantiles()
    last = records[-1]
    pool = last.get("mempool", {})
    verify = last.get("verify", {})
    lines.append(
        f"  blocks {len(records):>6}   txs {tx_total:>7}"
        f"   gas {gas_total:>14,}"
    )
    lines.append(
        f"  utilization   p50 {util['p50']:6.1f}%   p95 {util['p95']:6.1f}%"
        f"   last {last.get('utilization_pct', 0.0):6.1f}%"
    )
    fees = last.get("fees") or {}
    if fees:
        lines.append(
            f"  fees (last)   p50 {fees.get('p50', 0):7.2f}"
            f"   p95 {fees.get('p95', 0):7.2f}"
            f"   p99 {fees.get('p99', 0):7.2f}"
        )
    lines.append(
        f"  tx mix        transfer {mix.get('transfer', 0):>6}"
        f"   call {mix.get('call', 0):>6}   deploy {mix.get('deploy', 0):>6}"
    )
    ages = pool.get("ages") or []
    age_p95 = sorted(ages)[max(0, int(0.95 * len(ages)) - 1)] if ages else 0
    lines.append(
        f"  mempool       depth {pool.get('depth_after', 0):>5}"
        f"   deferrals {pool.get('deferrals_total', 0):>4}"
        f"   rbf {pool.get('replacements_total', 0):>4}"
        f"   sel-age p95 {age_p95:>4}"
    )
    # bisect = batch equations evaluated / deepest bisection level.
    lines.append(
        f"  verify        batched {verify.get('batched', 0):>5}"
        f"   singles {verify.get('singles', 0):>3}"
        f"   bisect {verify.get('subchecks', 0):>4}/{verify.get('depth', 0):<2}"
        f"   bad {verify.get('invalid', 0):>3}"
    )
    lines.append(rule)
    if audit is not None:
        count = audit.get("violation_count", 0)
        checked = audit.get("blocks_checked", 0)
        if count:
            kinds = sorted({v.get("kind", "?")
                            for v in audit.get("violations", [])})
            lines.append(
                f"  AUDIT: {count} VIOLATION(S) over {checked} blocks"
                f" [{', '.join(kinds)}] — see forensics/"
            )
        else:
            lines.append(f"  audit: OK — {checked} blocks, all invariants"
                         " hold")
        lines.append(rule)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Run directory: stream, finalize, read back
# ---------------------------------------------------------------------------


class ChainRunRecorder:
    """Streams block records to ``<root>/blocks.jsonl`` and finalizes
    ``audit.json`` on :meth:`close`."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._fh = open(os.path.join(root, "blocks.jsonl"), "a",
                        encoding="utf-8")

    def sink(self, record: dict) -> None:
        append_jsonl(self._fh, record)

    def attach(self, chain: Any) -> None:
        """Wire this recorder into a chain's observer and auditor."""
        chain.observer.sinks.append(self.sink)
        chain.auditor.forensics_dir = os.path.join(self.root, "forensics")

    def close(self, chain: Any) -> None:
        """Write the audit summary and release the stream."""
        with open(os.path.join(self.root, "audit.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(chain.auditor.summary(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        self._fh.close()


def read_chain_run(root: str) -> dict:
    """Read a chain run directory back, tolerating a torn jsonl tail.

    Returns ``{"records", "audit"}``; ``audit`` is None until the run has
    finalized.  A damaged ``blocks.jsonl`` line anywhere but the tail, or
    an ``audit.json`` that is present but undecodable, raises
    :class:`~repro.errors.ChainError` naming the file rather than hiding
    the blocks behind it or reporting a finalized run as still running.
    Version-1 records (which carry engine attribution under ``execution``)
    read back as they are, and an ``attribution.json`` left by such a run is
    ignored.
    """
    records = read_jsonl(os.path.join(root, "blocks.jsonl"), ChainError)
    audit: Optional[dict] = None
    audit_path = os.path.join(root, "audit.json")
    if os.path.exists(audit_path):
        try:
            with open(audit_path, "r", encoding="utf-8") as fh:
                audit = json.load(fh)
        except (json.JSONDecodeError, OSError) as exc:
            raise ChainError(f"damaged {audit_path}: {exc}") from None
        if not isinstance(audit, dict):
            raise ChainError(f"damaged {audit_path}: not a JSON object")
    return {"records": records, "audit": audit}
