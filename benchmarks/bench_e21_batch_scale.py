"""E21 (extension, Section VI): batch control plane at sweep scale.

The paper's feasibility question becomes operational at scale: can the
marketplace run *thousands* of independent workload sessions, sharded
across worker processes, survive workers dying mid-session, and still
produce exactly the bytes a single uninterrupted process would?  This
experiment submits a large job sweep (a fraction with fault injection
armed) through ``repro.control.batch_execute`` with the chaos hook
SIGKILLing busy workers at intervals, then replays a deterministic sample
of the jobs single-process and compares settlement digests one by one.

Gated metrics are the deterministic ones — settled counts and the
digest-identity fraction (which must be 1.0: byte-identical settlement is
the whole claim).  Throughput and wall time are reported as context.
"""

from __future__ import annotations

from harness import CHAOS_FAULT_EVERY, CHAOS_FAULT_RATE, chaos_sweep
from repro.bench import Experiment, higher_is_better, info
from repro.control import run_job
from reporting import format_table, report


def run_bench(quick: bool = False) -> dict:
    # Quick is sized for the CI gate on a small box (workers time-slice a
    # single core there); full is the 10k-session acceptance sweep.
    jobs = 240 if quick else 10_000
    baseline_sample = 40 if quick else 500
    workers = 4
    kill_every = 40 if quick else 1_000

    # The quick sweep is the one E22 assembles its trace from.
    _, specs, report_obj = chaos_sweep(jobs, workers, kill_every)

    # Single-process baseline over a deterministic stride sample
    # (includes faulted jobs and, with high probability, re-queued
    # ones); digests must match the sharded run byte for byte.
    stride = max(1, jobs // baseline_sample)
    sampled = specs[::stride][:baseline_sample]
    identical = 0
    for spec in sampled:
        baseline = run_job(spec)
        sharded = report_obj.results.get(spec.job_id)
        if (sharded is not None
                and sharded.result_digest == baseline.result_digest):
            identical += 1
    identical_fraction = identical / max(1, len(sampled))

    counts = report_obj.counts
    settled = counts.get("settled", 0) + counts.get("settled_degraded", 0)
    resumed = sum(1 for r in report_obj.results.values()
                  if r.resumed_boundary >= 0)
    throughput = jobs / report_obj.wall_s if report_obj.wall_s else 0.0

    rows = [[
        jobs, workers, report_obj.status,
        f"{settled}/{jobs}", counts.get("failed", 0),
        report_obj.worker_deaths, report_obj.requeues, resumed,
        f"{identical}/{len(sampled)}",
        f"{throughput:,.0f}/s",
    ]]
    lines = format_table(
        ["jobs", "workers", "status", "settled", "failed", "deaths",
         "requeues", "resumed", "digest match", "throughput"],
        rows,
    )
    lines += [
        "",
        f"1-in-{CHAOS_FAULT_EVERY} jobs armed with fault rate {CHAOS_FAULT_RATE}; one",
        f"busy worker SIGKILLed every {kill_every} results.  'digest match'",
        "compares the sharded run's per-job settlement digest against an",
        "uninterrupted single-process replay of the sampled jobs.",
        f"batch digest: {report_obj.batch_digest}",
    ]
    metrics = {
        "settled_total": higher_is_better(settled, threshold_pct=1.0),
        "identical_fraction": higher_is_better(identical_fraction,
                                               threshold_pct=0.5),
        "failed_expected": info(counts.get("failed", 0)),
        "worker_deaths": info(report_obj.worker_deaths),
        "requeues": info(report_obj.requeues),
        "throughput_jobs_per_s": info(throughput, unit="jobs/s"),
        "wall_s": info(report_obj.wall_s, unit="s"),
    }
    return {"metrics": metrics, "lines": lines,
            "status": report_obj.status,
            "identical_fraction": identical_fraction,
            "worker_deaths": report_obj.worker_deaths,
            "divergent": report_obj.divergent}


EXPERIMENT = Experiment("E21", "sharded batch execution at sweep scale",
                        run_bench)


def test_e21_batch_scale():
    payload = run_bench(quick=True)
    report("E21", "sharded batch execution at sweep scale",
           payload["lines"])
    # Byte-identity is the acceptance criterion, not a soft target.
    assert payload["identical_fraction"] == 1.0
    # The chaos hook really did kill workers, and the batch still reached
    # an orderly terminal state (failures only from intentionally-faulted
    # jobs).
    assert payload["worker_deaths"] >= 1
    assert payload["status"] in ("done", "partial_failed")
    assert not payload["divergent"]
