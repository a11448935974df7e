"""E22 (extension, Section VI): distributed trace assembly under chaos.

E21 established that the sharded batch control plane settles byte-
identically under SIGKILLed workers; this experiment asks whether it can
*explain itself* under the same abuse.  A chaos sweep runs with periodic
worker kills (the quick suite reuses the run directory E21 just settled —
same specs, seeds and kill schedule), then the trace assembler merges the
per-shard span sidecars and the jobs journal —
entirely from disk, as a post-mortem would — into one causally-linked
tree.

The claims are the observability acceptance criteria:

* ``causally_complete`` — every settled job's span subtree chains to
  the batch root (``completeness_fraction`` 1.0 even though workers died
  mid-export), with no orphans;
* ``report_determinism`` — the rendered critical-path report is byte-
  identical across two independent assemblies of the same directory,
  the property that makes trace diffs meaningful across replays;
* dead attempts appear as lost-worker spans, and the Chrome export
  validates against the checked-in schema.

Span counts and assembly wall time are reported as context.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from harness import chaos_sweep
from repro.bench import Experiment, format_table, higher_is_better, info
from repro.control import assemble_batch_trace
from repro.telemetry.distributed import (
    critical_path,
    render_critical_path,
    to_chrome_trace,
    validate_chrome_trace,
)

SCHEMA_PATH = (Path(__file__).resolve().parent.parent
               / "docs" / "chrome-trace.schema.json")


def run_bench(quick: bool = False) -> dict:
    jobs = 240 if quick else 2_000
    workers = 4
    kill_every = 40 if quick else 200

    root, _, report_obj = chaos_sweep(jobs, workers, kill_every)

    started = time.perf_counter()
    assembled = assemble_batch_trace(root)
    assembly_s = time.perf_counter() - started
    first_report = render_critical_path(critical_path(assembled))

    # Second, fully independent assembly from the same directory: the
    # report must come back byte for byte.
    again = assemble_batch_trace(root)
    second_report = render_critical_path(critical_path(again))
    deterministic = first_report == second_report

    chrome = to_chrome_trace(assembled)
    with open(SCHEMA_PATH, encoding="utf-8") as handle:
        schema = json.load(handle)
    chrome_errors = validate_chrome_trace(chrome, schema)
    json.dumps(chrome)  # must be serializable end to end

    counts = report_obj.counts
    settled = counts.get("settled", 0) + counts.get("settled_degraded", 0)
    rows = [[
        jobs, workers, report_obj.status, f"{settled}/{jobs}",
        report_obj.worker_deaths, len(assembled.spans),
        len(assembled.lost), len(assembled.orphans),
        f"{assembled.completeness:.3f}",
        "yes" if deterministic else "NO",
        f"{assembly_s * 1e3:.0f}ms",
    ]]
    lines = format_table(
        ["jobs", "workers", "status", "settled", "deaths", "spans",
         "lost", "orphans", "complete", "det.", "assembly"],
        rows,
    )
    lines += [
        "",
        f"trace {assembled.trace_id}: one busy worker SIGKILLed every",
        f"{kill_every} results; dead attempts hang under synthetic",
        "lost-worker spans closed from journal evidence.",
        f"chrome export: {len(chrome['traceEvents'])} events, "
        f"{len(chrome_errors)} schema violations",
    ]
    metrics = {
        "completeness_fraction": higher_is_better(assembled.completeness,
                                                  threshold_pct=0.5),
        "orphans": info(len(assembled.orphans)),
        "lost_worker_spans": info(len(assembled.lost)),
        "spans_total": info(len(assembled.spans)),
        "worker_deaths": info(report_obj.worker_deaths),
        "chrome_schema_violations": info(len(chrome_errors)),
        "assembly_wall_s": info(assembly_s, unit="s"),
    }
    claims = {
        # Causal completeness and report determinism are the acceptance
        # criteria, not soft targets.
        "causally_complete": assembled.completeness == 1.0,
        "report_determinism": deterministic,
        "no_orphans": not assembled.orphans,
        # The chaos hook really did kill workers, and their dead attempts
        # are represented rather than dropped.
        "workers_killed": report_obj.worker_deaths >= 1,
        "lost_spans_kept": len(assembled.lost) >= 1,
        "chrome_valid": not chrome_errors,
    }
    return {"metrics": metrics, "lines": lines, "claims": claims}


EXPERIMENT = Experiment("E22", "distributed trace assembly under chaos",
                        run_bench)
