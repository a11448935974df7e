"""E25 catalogue: workloads, metrics and how they interact.

``BENCHMARK.json`` at the repository root repeats the names, units,
directions and bounds below for the driver (``test_e25.py`` keeps the two
equal).  What does not fit its fixed keys lives only here and in the
README: the size of each workload and, per layer metric, the end-to-end
metric and workload it is predicted to move.
"""

from __future__ import annotations

from dataclasses import dataclass

SCHEMA = "pds2-e25/1"

#: ``--seconds`` at which the workload sizes below were chosen (this is
#: ``run_seconds`` in BENCHMARK.json).  Work is *fixed*, not timed: the op
#: count scales linearly with ``--seconds`` and nothing else, so gas, block
#: counts and the digest repeat exactly on one seed and stay comparable
#: between two commits.
REF_SECONDS = 20

#: What ``run.host_slice`` takes on the quiet 2-core reference host.  Every
#: time among the end-to-end metrics is wall time x this / the slices run
#: next to it: *reference-host* milliseconds (see ``run.measure``).
REF_SLICE_MS = 13.5

#: ``op_ms_tail`` is the slowest op that still has this many slower ones.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    name: str
    #: Passes per untraced run.  Each pass sets a fresh instance up and runs
    #: the same ops; op ``i`` is timed as its fastest run (``run.measure``).
    #: Workloads whose cost does not depend on chain height take more,
    #: shorter passes: more looks at every op for the same run time.
    passes: int
    #: Ops per pass at ``REF_SECONDS``, sized on the 2-core reference host
    #: so all passes together last about that long at the commit that added
    #: E25.
    ops: int
    #: Ops come in cycles of this length (the fault kinds of ``ml_faulted``);
    #: op counts and growth windows are whole cycles so every window holds
    #: the same mix.
    cycle: int
    why: str


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "ml_wide", passes=5, ops=10, cycle=1,
        why="data path: 16 providers x 150 rows, 4 executors; per-provider "
            "quote, ECDH, envelope encryption and row encoding dominate",
    ),
    Workload(
        "agg_sustained", passes=3, ops=64, cycle=1,
        why="control path on a growing chain: 4 providers x 25 rows, 5 "
            "blocks per session, so state snapshot/root, views and audits "
            "dominate",
    ),
    Workload(
        "ml_faulted", passes=4, ops=24, cycle=6,
        why="same layers under recovery: 8 providers, 3 executors, one "
            "injected fault per session cycling over six kinds; re-match "
            "re-attests and re-encrypts, chain rejects retry",
    ),
    Workload(
        "chain_bulk", passes=4, ops=8, cycle=1,
        why="chain layer alone with large blocks and tiny state: submit "
            "x512 then mine_block on a bare default Blockchain",
    ),
)}


def op_count(workload: Workload, seconds: float, smoke: bool = False) -> int:
    """Ops per pass: linear in ``seconds``, a whole number of cycles."""
    if smoke:
        return max(3, workload.cycle)
    cycles = round(workload.ops * seconds / REF_SECONDS / workload.cycle)
    return max(1, cycles) * workload.cycle


def growth_window(ops: int, cycle: int) -> int:
    """Window for ``op_ms_growth``: half the pass, in whole cycles."""
    return max(ops // 2 // cycle * cycle, min(cycle, ops))


def tail_index(ops: int) -> int:
    """Index into the sorted op times of ``op_ms_tail``.

    The highest order statistic with ``TAIL_BEYOND`` samples beyond it;
    the upper median when the pass is too short for that.
    """
    return max(ops - 1 - TAIL_BEYOND, ops // 2)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: share of the parent's median it may worsen by.
    bound: float | None = None
    #: What it means (end-to-end) or which end-to-end metric it should move
    #: on which workload (per-layer).
    note: str = ""


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "median over the passes: data, marketplace and actors; "
           "chain_bulk also pre-signs every transaction here"),
    Metric("ops_per_s", "1/s", "higher", 0.20,
           "settled ops / summed op time (sessions/s; blocks/s on "
           "chain_bulk)"),
    Metric("op_ms_p50", "ms", "lower", 0.20,
           "median op time; op i is timed as the median over the passes of "
           "its reference-host time"),
    Metric("op_ms_tail", "ms", "lower", 0.20,
           "slowest op with ten slower ones; the median of a short pass"),
    Metric("op_ms_growth", "ratio", "lower", 0.25,
           "median of the second half / median of the first half of a pass"),
    Metric("tx_per_s", "1/s", "higher", 0.20,
           "transactions with success receipts / summed op time"),
    Metric("gas_per_op", "gas", "lower", 0.01,
           "exact; the users' on-chain cost"),
    Metric("settled_fraction", "ratio", "higher", 0.01,
           "1 - failed/attempted (sessions; transactions on chain_bulk)"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           "ru_maxrss at the end, so work moved into caches shows"),
)

PHASES = ("deploy", "match", "register_executors", "attest_and_submit",
          "start_execution", "execute", "aggregate", "settle", "audit")

_DATA_PATH = "ops_per_s, op_ms_p50 on ml_wide; flat on agg_sustained; absent on chain_bulk"
_HEIGHT = ("op_ms_growth, op_ms_tail, ops_per_s on agg_sustained (and "
           "ml_faulted); flat on chain_bulk")
_BULK = ("tx_per_s, op_ms_p50 on chain_bulk; small share on lifecycle "
         "workloads (blocks of 1-16 txs)")


def _ms(name: str, note: str) -> Metric:
    return Metric(name, "ms", "lower", note=note)


def _count(name: str, note: str, better: str = "lower") -> Metric:
    return Metric(name, "count", better, note=note)


PER_LAYER: tuple[Metric, ...] = (
    *(_ms(f"phase.{phase}_ms", "phase_wall_times(trail); untraced ops")
      for phase in PHASES),
    _ms("chain.submit_ms", _BULK),
    _ms("chain.mine_block_ms", _BULK),
    _ms("chain.vm_apply_ms", _BULK),
    _ms("chain.state_snapshot_ms", _HEIGHT),
    _ms("chain.state_root_ms", _HEIGHT),
    _ms("chain.view_ms", _HEIGHT),
    _ms("chain.audit_ms", _HEIGHT),
    _ms("chain.verify_chain_ms", _HEIGHT),
    _count("chain.blocks_per_op",
           "ops_per_s on agg_sustained once a scheduler exists"),
    _count("chain.txs_per_block", _BULK, better="higher"),
    _count("chain.snapshots_per_op", _HEIGHT),
    _ms("crypto.ecdsa_sign_ms", _BULK),
    _ms("crypto.ecdsa_verify_ms", _BULK),
    _count("crypto.ecdsa_sign_calls", _BULK),
    _count("crypto.ecdsa_verify_calls", _BULK),
    _ms("crypto.ecdh_ms", _DATA_PATH),
    _ms("crypto.symmetric_ms", _DATA_PATH),
    Metric("crypto.symmetric_bytes", "B", "lower", note=_DATA_PATH),
    _ms("crypto.hash_ms", "every workload; hash_object self time"),
    _ms("crypto.merkle_ms", _DATA_PATH),
    _ms("serialization.encode_ms", _DATA_PATH),
    _count("serialization.encode_calls", _DATA_PATH),
    Metric("serialization.encode_bytes", "B", "lower", note=_DATA_PATH),
    _ms("serialization.decode_ms", _DATA_PATH),
    _ms("tee.measurement_ms",
        "per quote / launch: ml_wide and agg_sustained"),
    _count("tee.measurement_calls",
           "per quote / launch: ml_wide and agg_sustained"),
    _ms("tee.launch_ms", "per executor: every lifecycle workload"),
    _ms("tee.quote_ms", _DATA_PATH),
    _ms("tee.verify_quote_ms", _DATA_PATH),
    _ms("tee.provision_ms", _DATA_PATH),
    _ms("tee.run_ms", "ops_per_s on ml_wide, ml_faulted (ML training)"),
    _ms("governance.certificate_ms", _DATA_PATH),
    _ms("governance.audit_ms", _HEIGHT),
    _ms("storage.match_ms", "flat: providers x ontology"),
    _ms("telemetry.publish_ms", "equal share everywhere (budget 5 %)"),
    _count("telemetry.spans_per_op", "telemetry.publish_ms"),
    _count("telemetry.events_per_op", "telemetry.publish_ms"),
    _ms("core.recovery_ms", "ml_faulted only; failed attempts, from events"),
    _count("core.recoveries_per_op", "ml_faulted only"),
    _count("core.faults_per_op", "ml_faulted only"),
    _count("core.degraded_per_op", "ml_faulted only; exact"),
    _ms("core.self_ms", "op wall minus every layer above"),
    _ms("host.calibration_ms",
        "median host slice; the end-to-end times are rescaled by it"),
    Metric("bench.trace_overhead_pct", "%", "lower",
           note="traced / untraced op wall - 1, interleaved in one run"),
)
