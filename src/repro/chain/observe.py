"""Per-block analytics and the chain ops plane.

Counterpart of the batch control plane's ``trace_ops``: every sealed block
becomes one deterministic, JSON-safe record — gas utilization, fee
percentiles (through the same histogram-quantile math the telemetry
registry exports), transaction mix, the mempool's selection-time gauges,
batch-signature bisection stats, and the parallel engine's attribution
(lane occupancy, predicted-conflict merge keys, the labeled cause of every
serially-executed block).

The records power three consumers:

* :func:`attribution_report` — an aggregate that answers "where did my
  parallelism go": per-lane occupancy, the conflict matrix keyed by
  contract/account, and a serial-cause breakdown.  Contains no wall-clock
  values, so matched seeds produce byte-identical reports.
* :func:`render_chain_top` — the fixed-width panel behind
  ``python -m repro chain top [--watch]``.
* :class:`ChainRunRecorder` / :func:`read_chain_run` — a crash-tolerant
  run directory (``blocks.jsonl`` is append-only and read back tolerating
  a torn tail, like the batch event log).
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Optional

from repro.chain.transaction import CREATE, Transaction
from repro.telemetry import metrics as _tm
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import tracer as _tracer

#: Bumped when the block-record shape changes (readers stay tolerant).
RECORD_VERSION = 1

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
        self.records: list[dict] = []
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
                "engine": self.chain.execution,
                "groups": execution.groups,
                "fell_back": execution.fell_back,
                "serial_cause": execution.serial_cause,
                "lane_txs": {str(lane): count for lane, count
                             in sorted(execution.lane_txs.items())},
                "conflict_keys": dict(sorted(
                    execution.conflict_keys.items())),
                "hinted_txs": execution.hinted_txs,
                "unhinted_txs": execution.unhinted_txs,
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
            serial_cause=execution.serial_cause,
        ):
            pass
        self.records.append(record)
        for sink in tuple(self.sinks):
            sink(record)
        return record


# ---------------------------------------------------------------------------
# Attribution: where did the parallelism go?
# ---------------------------------------------------------------------------


def attribution_report(records: list[dict]) -> dict:
    """Aggregate per-block execution records into the attribution report.

    Deterministic by construction — inputs carry no wall-clock values and
    every map is emitted key-sorted — so ``json.dumps(report,
    sort_keys=True)`` is byte-identical across matched-seed runs.
    """
    lane_txs: dict[str, int] = {}
    causes: dict[str, int] = {}
    conflicts: dict[str, int] = {}
    hinted = unhinted = 0
    parallel_blocks = serial_blocks = fallbacks = total_txs = 0
    for record in records:
        execution = record.get("execution", {})
        txs = record.get("txs", 0)
        total_txs += txs
        if txs:
            cause = execution.get("serial_cause", "")
            if not cause and execution.get("engine") != "parallel":
                cause = "serial_engine"
            if cause:
                serial_blocks += 1
                causes[cause] = causes.get(cause, 0) + 1
            else:
                parallel_blocks += 1
        if execution.get("fell_back"):
            fallbacks += 1
        for lane, count in execution.get("lane_txs", {}).items():
            lane_txs[lane] = lane_txs.get(lane, 0) + count
        for key, count in execution.get("conflict_keys", {}).items():
            conflicts[key] = conflicts.get(key, 0) + count
        hinted += execution.get("hinted_txs", 0)
        unhinted += execution.get("unhinted_txs", 0)
    ranked = sorted(conflicts.items(), key=lambda item: (-item[1], item[0]))
    return {
        "blocks": len(records),
        "transactions": total_txs,
        "parallel_blocks": parallel_blocks,
        "serial_blocks": serial_blocks,
        "fallbacks": fallbacks,
        "serial_causes": dict(sorted(causes.items())),
        "lane_txs": dict(sorted(lane_txs.items())),
        "conflict_matrix": dict(sorted(conflicts.items())),
        "top_conflict_keys": [
            {"key": key, "merges": count} for key, count in ranked[:10]
        ],
        "hinted_txs": hinted,
        "unhinted_txs": unhinted,
    }


# ---------------------------------------------------------------------------
# Rendering: python -m repro chain top
# ---------------------------------------------------------------------------

_WIDTH = 74


def _bar(value: int, peak: int, width: int = 16) -> str:
    if peak <= 0:
        return " " * width
    filled = max(1 if value else 0, round(width * value / peak))
    return ("#" * filled).ljust(width)


def render_chain_top(records: list[dict],
                     attribution: Optional[dict] = None,
                     audit: Optional[dict] = None) -> str:
    """Fixed-width ops panel over a chain run's block records."""
    rule = "-" * _WIDTH
    lines = ["PDS2 CHAIN — ops plane", rule]
    if not records:
        lines.append("  (no blocks recorded yet)")
        lines.append(rule)
        return "\n".join(lines)
    report = attribution if attribution is not None \
        else attribution_report(records)
    registry = MetricsRegistry()
    util_hist = registry.histogram("util", buckets=(5, 10, 25, 50, 75, 90,
                                                    100))
    gas_total = 0
    mix = {"transfer": 0, "call": 0, "deploy": 0}
    for record in records:
        util_hist.observe(record.get("utilization_pct", 0.0))
        gas_total += record.get("gas_used", 0)
        for kind, count in record.get("tx_mix", {}).items():
            mix[kind] = mix.get(kind, 0) + count
    util = util_hist.child().quantiles()
    last = records[-1]
    pool = last.get("mempool", {})
    verify = last.get("verify", {})
    lines.append(
        f"  blocks {report['blocks']:>6}   txs {report['transactions']:>7}"
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
    lines.append(
        f"  execution     parallel {report['parallel_blocks']:>4}"
        f"   serial {report['serial_blocks']:>4}"
        f"   fallbacks {report['fallbacks']:>3}"
        f"   hinted {report['hinted_txs']}"
        f"/{report['hinted_txs'] + report['unhinted_txs']}"
    )
    lane_txs = report.get("lane_txs", {})
    if lane_txs:
        peak = max(lane_txs.values())
        for lane in sorted(lane_txs, key=int):
            count = lane_txs[lane]
            lines.append(
                f"  lane {lane:>2}       {_bar(count, peak)} {count:>6} txs"
            )
    causes = report.get("serial_causes", {})
    if causes:
        shown = "   ".join(f"{cause} {count}" for cause, count
                           in sorted(causes.items()))
        lines.append(f"  serial causes {shown}")
    top = report.get("top_conflict_keys", [])
    if top:
        lines.append("  top conflict keys (predicted-merge counts):")
        for entry in top[:5]:
            key = entry["key"]
            shown_key = key if len(key) <= 48 else key[:45] + "..."
            lines.append(f"    {shown_key:<50} {entry['merges']:>6}")
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
    ``attribution.json`` / ``audit.json`` on :meth:`close`."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._fh = open(os.path.join(root, "blocks.jsonl"), "a",
                        encoding="utf-8")

    def sink(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def attach(self, chain: Any) -> None:
        """Wire this recorder into a chain's observer and auditor."""
        if chain.observer is None:
            raise ValueError("chain was built with observe=False")
        chain.observer.sinks.append(self.sink)
        if chain.auditor is not None:
            chain.auditor.forensics_dir = os.path.join(self.root,
                                                       "forensics")

    def close(self, chain: Any) -> None:
        """Write the aggregate reports and release the stream."""
        records = chain.observer.records if chain.observer is not None \
            else []
        with open(os.path.join(self.root, "attribution.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(attribution_report(records), fh, sort_keys=True,
                      indent=2)
            fh.write("\n")
        if chain.auditor is not None:
            with open(os.path.join(self.root, "audit.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(chain.auditor.summary(), fh, sort_keys=True,
                          indent=2)
                fh.write("\n")
        self._fh.close()


def read_chain_run(root: str) -> dict:
    """Read a chain run directory back, tolerating a torn jsonl tail.

    Returns ``{"records", "attribution", "audit"}``; the attribution is
    recomputed from the records when ``attribution.json`` is absent (a
    live run being watched), and ``audit`` is None when the auditor was
    off or the run has not finalized.
    """
    records: list[dict] = []
    blocks_path = os.path.join(root, "blocks.jsonl")
    if os.path.exists(blocks_path):
        with open(blocks_path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    break  # torn tail: a writer died mid-record
    attribution: Optional[dict] = None
    attribution_path = os.path.join(root, "attribution.json")
    if os.path.exists(attribution_path):
        try:
            with open(attribution_path, "r", encoding="utf-8") as fh:
                attribution = json.load(fh)
        except (json.JSONDecodeError, OSError):
            attribution = None
    if attribution is None:
        attribution = attribution_report(records)
    audit: Optional[dict] = None
    audit_path = os.path.join(root, "audit.json")
    if os.path.exists(audit_path):
        try:
            with open(audit_path, "r", encoding="utf-8") as fh:
                audit = json.load(fh)
        except (json.JSONDecodeError, OSError):
            audit = None
    return {"records": records, "attribution": attribution, "audit": audit}
