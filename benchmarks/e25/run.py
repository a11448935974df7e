"""E25: sustained-session benchmark with phase x layer attribution.

One workload, one measurement (the form the driver calls)::

    python3 benchmarks/e25/run.py --workload agg_sustained --seed 1 \
        --seconds 20 --trace 0

prints every metric by name and unit, a digest line, and as its last line
one JSON object.  ``--trace 0`` measures the end-to-end metrics with no
probe installed; ``--trace 1`` is the separate traced measurement that
yields the per-layer metrics.  Without ``--workload`` every workload runs
(each measurement in its own process, so ``peak_rss_mb`` belongs to one
workload) over ``--seeds`` seeds, and ``--out`` keeps the summary.

Work is fixed, closed-loop and single-client: op ``i + 1`` starts when op
``i`` has returned; ``--seconds`` only scales the op count (see spec.py).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import spec  # noqa: E402

try:
    import workloads  # noqa: E402
    from repro.core.events import phase_wall_times  # noqa: E402
    from repro.errors import LifecycleError, PDS2Error  # noqa: E402
except ModuleNotFoundError as exc:  # no src/ beside the benchmark
    raise SystemExit(f"e25: {exc}; run it from a checkout that holds "
                     "src/repro") from exc

#: The traced pass may not account for less or more than this share of an
#: op's wall time.
SELF_TIME_TOLERANCE = 0.01
#: Host slices spread wider than this (p90 / p10 - 1) mark the run
#: ``unstable`` in the output.
HOST_TOLERANCE = 0.10


#: What a host slice copies and encodes: the shapes the program spends its
#: time on (nested dicts of floats, strings and small dicts).
_SLICE_STATE = {
    f"k{index}": {"a": [1.5 * step for step in range(8)], "b": "x" * 20,
                  "c": {"d": index}}
    for index in range(120)
}


def host_slice() -> float:
    """Milliseconds for a fixed loop of interpreter-bound work.

    One slice runs between any two timed regions.  The shared host slows
    in bursts shorter than a second, which a slice next to an op feels and
    one at the start of the run does not; see ``measure`` for its use.
    The loop is what the program itself is made of — Python bytecode,
    ``deepcopy`` and ``json.dumps`` of nested dicts.  ``hashlib`` and
    ``pow`` loops were tried and dropped: the host's slow phases do not
    touch them, so they only diluted the signal (rescaling by SHA-256 time
    left the run-to-run spread where raw wall time has it).
    """
    began = perf_counter()
    accumulator = 0
    for index in range(100_000):
        accumulator = (accumulator * 31 + index) % 1_000_003
    for _ in range(9):
        json.dumps(copy.deepcopy(_SLICE_STATE), sort_keys=True)
    return (perf_counter() - began) * 1e3


def _event_data(events: list, name: str, key: str) -> list:
    return [event.data[key] for event in events if event.name == name]


def _account_session(events: list, reward_pool: int, problems: list[str],
                     label: str) -> dict:
    """What one lifecycle op did, from its public event trail."""
    completed = _event_data(events, "session.completed", "degraded")
    paid = sum(_event_data(events, "settle.payouts_recorded", "total_paid"))
    refunded = sum(_event_data(events, "session.refunded", "refunded"))
    deployed = any(event.name == "contract.deployed" for event in events)
    if paid + refunded != (reward_pool if deployed else 0):
        problems.append(f"{label}: paid {paid} + refunded {refunded} != "
                        f"escrow {reward_pool}")
    if completed and _event_data(events, "audit.completed", "clean") != [True]:
        problems.append(f"{label}: audit not clean")
    # Time spent in phase attempts that ended in a recovery directive.
    recovery_ms = 0.0
    attempt_began = 0.0
    recoveries = 0
    for event in events:
        if event.name == "phase.started":
            attempt_began = event.wall_time
        elif event.name.startswith("recovery."):
            recoveries += 1
            recovery_ms += (event.wall_time - attempt_began) * 1e3
    hashes = _event_data(events, "aggregate.completed", "result_hash")
    return {
        "settled": bool(completed),
        "degraded": bool(completed and completed[0]),
        "result": hashes[-1] if hashes else "",
        "phases": phase_wall_times(events),
        "events": len(events),
        "spans": sum(event.name == "span.end" for event in events),
        "faults": sum(event.name == "fault.injected" for event in events),
        "recoveries": recoveries,
        "recovery_ms": recovery_ms,
    }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _one_pass(name: str, seed: int, ops: int, trace: bool,
              problems: list[str]) -> dict:
    """Set one instance up and run its ops; checks go into ``problems``."""
    workload = spec.WORKLOADS[name]
    slice_before = host_slice()
    began = perf_counter()
    built = workloads.BUILDERS[name](seed, ops)
    setup_ms = (perf_counter() - began) * 1e3
    slice_after = host_slice()
    setup = {"ms": setup_ms, "slice_ms": (slice_before + slice_after) / 2}
    chain = built.chain

    recorder = layers.SpanRecorder()
    probes = layers.ProbeSet(recorder, built.hooks) if trace else None
    records: list[dict] = []
    for index in range(ops):
        # Traced and untraced cycles interleave (traced, untraced, untraced,
        # traced, ...: a trend along the pass cancels), so one pass yields
        # both the layer table and the overhead of producing it.
        traced = trace and (index // workload.cycle) % 4 in (0, 3)
        height, gas = chain.height, chain.total_gas_used
        slice_before = slice_after
        if traced:
            probes.install()
        began = perf_counter()
        try:
            if traced:
                with recorder.op():
                    built.run_op(index)
            else:
                built.run_op(index)
        except LifecycleError:
            pass  # a failed session; its trail says so below
        finally:
            ended = perf_counter()
            if traced:
                probes.uninstall()
        slice_after = host_slice()
        blocks = chain.blocks[height + 1:]
        hashes = [tx.tx_hash for block in blocks for tx in block.transactions]
        record = {
            "ms": (ended - began) * 1e3,
            "slice_ms": (slice_before + slice_after) / 2,
            "traced": traced,
            "blocks": len(blocks),
            "txs": len(hashes),
            "txs_ok": sum(chain.receipt_for(h).status for h in hashes),
            "gas": chain.total_gas_used - gas,
        }
        if built.trail is not None:
            record["attempted"] = 1
            record.update(_account_session(
                built.trail.take(), built.reward_pool, problems,
                f"seed {seed} op {index}"))
            record["ok"] = int(record["settled"])
        else:
            expected = built.tx_hashes[index]
            record["attempted"] = len(expected)
            record["ok"] = record["txs_ok"]
            record["settled"] = (hashes == expected
                                 and record["ok"] == len(expected))
            record["result"] = blocks[-1].block_hash.hex() if blocks else ""
            if not record["settled"]:
                problems.append(f"seed {seed} op {index}: block does not "
                                f"hold its {len(expected)} transactions "
                                "with success receipts")
        records.append(record)

    try:
        chain.verify_chain()
    except PDS2Error as exc:
        problems.append(f"seed {seed}: verify_chain: {exc}")
    violations = chain.auditor.summary()["violation_count"]
    if violations:
        problems.append(f"seed {seed}: chain auditor reports {violations} "
                        "violations")
    digest = hashlib.sha256(json.dumps({
        "state_root": chain.state.state_root().hex(),
        "results": sorted(record["result"] for record in records),
    }, sort_keys=True).encode()).hexdigest()
    return {"setup": setup, "records": records, "rows": recorder.rows,
            "digest": digest, "blocks": chain.height}


def host_scale(timed: dict) -> float:
    """Reference slice / the slices run just before and just after a timed
    region: what turns its wall times into reference-host times."""
    return spec.REF_SLICE_MS / timed["slice_ms"]


def ref_ms(timed: dict) -> float:
    """A timed region in reference-host milliseconds."""
    return timed["ms"] * host_scale(timed)


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, out_dir: Path = HERE / "out") -> dict:
    """Measure one workload, untraced or traced; returns the result record.

    The untraced measurement makes ``workload.passes`` passes, each a fresh
    instance running the same ops, and times op ``i`` as the median over
    the passes of its reference-host time.  Every pass but the last runs
    on a seed of its own — a repeat on one seed would find its keys and
    signatures in the process-wide crypto caches and measure a warm run no
    user gets.  Counts and the digest are those of the last pass, the one
    on ``--seed``; failures count over all passes.
    """
    workload = spec.WORKLOADS[name]
    ops = spec.op_count(workload, seconds, smoke)
    problems: list[str] = []
    passes = [
        _one_pass(name, seed + 7919 * repeat, ops, trace, problems)
        for repeat in reversed(range(
            1 if trace or smoke else workload.passes))
    ]
    last = passes[-1]
    records = last["records"]
    every = [record for done in passes for record in done["records"]]
    attempted = sum(record["attempted"] for record in every)
    failed = attempted - sum(record["ok"] for record in every)
    slices = sorted(record["slice_ms"] for record in every)
    result = {
        "workload": name, "seed": seed, "ops": ops, "trace": int(trace),
        "attempted": attempted, "failed": failed, "digest": last["digest"],
        "blocks": last["blocks"],
        "host_slice_ms": statistics.median(slices),
        "unstable": (slices[len(slices) * 9 // 10] / slices[len(slices) // 10]
                     - 1.0 > HOST_TOLERANCE),
    }
    if trace:
        out_dir.mkdir(parents=True, exist_ok=True)
        layers.write_spans(last["rows"], out_dir / f"{name}.spans.jsonl")
        result["metrics"], result["growth"] = _per_layer(
            records, last["rows"], result["host_slice_ms"], problems)
    else:
        result["metrics"] = _end_to_end(
            passes, workload, 1.0 - failed / attempted)
        result["raw_op_ms_p50"] = statistics.median(
            record["ms"] for record in every)
        result["phases"] = _phase_means(records)
    result["problems"] = problems
    result["correct"] = not problems
    return result


def _end_to_end(passes: list[dict], workload: spec.Workload,
                settled_fraction: float) -> dict[str, float]:
    records = passes[-1]["records"]
    times = [
        statistics.median(ref_ms(done["records"][index]) for done in passes)
        for index in range(len(records))
    ]
    wall_s = sum(times) / 1e3
    window = spec.growth_window(len(times), workload.cycle)
    return {
        "setup_s": statistics.median(
            ref_ms(done["setup"]) for done in passes) / 1e3,
        "ops_per_s": sum(r["settled"] for r in records) / wall_s,
        "op_ms_p50": statistics.median(times),
        "op_ms_tail": sorted(times)[spec.tail_index(len(times))],
        "op_ms_growth": (statistics.median(times[-window:])
                         / statistics.median(times[:window])),
        "tx_per_s": sum(record["txs_ok"] for record in records) / wall_s,
        "gas_per_op": sum(record["gas"] for record in records) / len(records),
        "settled_fraction": settled_fraction,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def _phase_means(records: list[dict]) -> dict[str, float]:
    """Mean reference-host ms per op and phase, from ``phase_wall_times``
    of each trail."""
    totals: dict[str, float] = {}
    for record in records:
        scale = host_scale(record)
        for phase, seconds in record.get("phases", {}).items():
            totals[phase] = totals.get(phase, 0.0) + seconds * 1e3 * scale
    return {phase: total / len(records) for phase, total in totals.items()}


def _per_layer(records: list[dict], rows: list[list], host_slice_ms: float,
               problems: list[str]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics and the first -> last layer growth table, each op
    rescaled to reference-host milliseconds like the end-to-end times."""
    traced = [record for record in records if record["traced"]]
    # Phase times and the overhead base come from the ops no probe touched.
    untraced = [r for r in records if not r["traced"]] or traced
    per_op = layers.per_op_layers(rows)
    if len(per_op) != len(traced):
        problems.append(f"{len(per_op)} root spans for {len(traced)} "
                        "traced ops")
    for record, cells in zip(traced, per_op):
        attributed = sum(cell["ms"] for cell in cells.values())
        if abs(attributed / record["ms"] - 1.0) > SELF_TIME_TOLERANCE:
            problems.append(
                f"layer self times sum to {attributed:.3f} ms of a "
                f"{record['ms']:.3f} ms op")
        for cell in cells.values():
            cell["ms"] *= host_scale(record)

    def layer(name: str, field: str = "ms") -> float:
        return _mean([cells[name][field] for cells in per_op])

    def per_op_mean(field: str) -> float:
        return _mean([record.get(field, 0) for record in records])

    phases = _phase_means(untraced)
    blocks = sum(record["blocks"] for record in records)
    metrics = {
        **{f"phase.{phase}_ms": phases.get(phase, 0.0)
           for phase in spec.PHASES},
        **{f"{name}_ms": layer(name) for name in layers.LAYERS},
        "chain.blocks_per_op": per_op_mean("blocks"),
        "chain.txs_per_block": (sum(r["txs"] for r in records) / blocks
                                if blocks else 0.0),
        "chain.snapshots_per_op": layer("chain.state_snapshot", "calls"),
        "crypto.ecdsa_sign_calls": layer("crypto.ecdsa_sign", "calls"),
        "crypto.ecdsa_verify_calls": layer("crypto.ecdsa_verify", "calls"),
        "crypto.symmetric_bytes": layer("crypto.symmetric", "size"),
        "serialization.encode_calls": layer("serialization.encode", "calls"),
        "serialization.encode_bytes": layer("serialization.encode", "size"),
        "tee.measurement_calls": layer("tee.measurement", "calls"),
        "telemetry.spans_per_op": per_op_mean("spans"),
        "telemetry.events_per_op": per_op_mean("events"),
        "core.recovery_ms": _mean([
            record.get("recovery_ms", 0.0) * host_scale(record)
            for record in records]),
        "core.recoveries_per_op": per_op_mean("recoveries"),
        "core.faults_per_op": per_op_mean("faults"),
        "core.degraded_per_op": per_op_mean("degraded"),
        "host.calibration_ms": host_slice_ms,
        "bench.trace_overhead_pct": 100.0 * (
            _mean([ref_ms(r) for r in traced])
            / _mean([ref_ms(r) for r in untraced]) - 1.0),
    }
    # Where late ops spend more than early ones: layer means over the first
    # and the last quarter of the pass.
    window = max(1, len(per_op) // 4)
    growth = {
        name: (_mean([cells[name]["ms"] for cells in per_op[:window]]),
               _mean([cells[name]["ms"] for cells in per_op[-window:]]))
        for name in layers.LAYERS
    }
    return metrics, growth


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def report(result: dict) -> None:
    """Print one measurement: every metric by name with its unit, then the
    JSON line."""
    name = result["workload"]
    catalogue = spec.PER_LAYER if result["trace"] else spec.END_TO_END
    print(f"e25 {name} seed={result['seed']} ops={result['ops']} "
          f"trace={result['trace']} blocks={result['blocks']} "
          f"host_slice_ms={result['host_slice_ms']:.2f}"
          + (" unstable" if result["unstable"] else ""))
    for metric in catalogue:
        print(f"{name} {metric.name} {result['metrics'][metric.name]:.6g} "
              f"{metric.unit}")
    if not result["trace"]:
        print(f"{name} raw.op_ms_p50 {result['raw_op_ms_p50']:.6g} ms "
              "(wall, not rescaled; informational)")
    for phase, ms in result.get("phases", {}).items():
        print(f"{name} phase.{phase}_ms {ms:.6g} ms (informational)")
    if result.get("growth"):
        print(f"{name} largest layer growth, first -> last quarter:")
        rows = sorted(result["growth"].items(),
                      key=lambda item: item[1][0] - item[1][1])
        for layer_name, (first, last) in rows[:5]:
            print(f"  {layer_name}_ms {first:.3f} -> {last:.3f}")
    for problem in result["problems"]:
        print(f"{name} CHECK FAILED: {problem}")
    print(f"digest {name} seed={result['seed']} {result['digest']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric.name: {"value": result["metrics"][metric.name],
                          "unit": metric.unit}
            for metric in catalogue
        },
    }))


def run_all(seed: int, seeds: int, seconds: float, smoke: bool,
            out: str | None) -> bool:
    """Every workload: ``seeds`` untraced measurements and a traced one,
    each in a process of its own."""
    summary: dict = {
        "schema": spec.SCHEMA,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "seeds": list(range(seed, seed + seeds)),
        "workloads": {},
    }
    correct = True
    for name in spec.WORKLOADS:
        runs = [_run_process(name, seed + offset, seconds, 0, smoke)
                for offset in range(seeds)]
        traced = _run_process(name, seed, seconds, 1, smoke)
        print(traced["body"])
        correct = correct and all(run["correct"] for run in runs + [traced])
        end_to_end = {}
        for metric in spec.END_TO_END:
            values = [run["metrics"][metric.name]["value"] for run in runs]
            entry = {"unit": metric.unit, "median": statistics.median(values),
                     "values": values}
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3,
                             spread=(q3 - q1) / entry["median"])
            end_to_end[metric.name] = entry
            print(f"{name} {metric.name} median={entry['median']:.6g} "
                  f"{metric.unit}"
                  + (f" spread={entry['spread']:.4f} bound={metric.bound}"
                     if "spread" in entry else ""))
        summary["workloads"][name] = {
            "attempted": runs[0]["attempted"],
            "failed": max(run["failed"] for run in runs),
            "digests": {run["seed"]: run["digest"] for run in runs},
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
    if out:
        Path(out).write_text(json.dumps(summary, indent=1) + "\n")
    return correct


def _run_process(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, capture_output=True, text=True)
    if not done.stdout.strip():
        raise SystemExit(f"e25: {name} printed no result\n{done.stderr}")
    body, _, last = done.stdout.rstrip().rpartition("\n")
    return {**json.loads(last), "seed": seed, "body": body,
            "digest": body.rsplit(" ", 1)[-1]}


def _git_sha() -> str:
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.REF_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops and one pass: a check, not a "
                             "measurement")
    parser.add_argument("--seeds", type=int, default=1,
                        help="without --workload: untraced measurements per "
                             "workload, on seeds --seed, --seed+1, ...")
    parser.add_argument("--out", help="without --workload: summary JSON")
    args = parser.parse_args(argv)
    if args.workload is None:
        return 0 if run_all(args.seed, args.seeds, args.seconds, args.smoke,
                            args.out) else 1
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.smoke)
    report(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
