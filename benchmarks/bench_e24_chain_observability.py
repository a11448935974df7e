"""E24: chain observability — audit coverage, record determinism.

The ops plane added for the chain (per-block analytics records and the
always-on invariant auditor) must be safe to leave enabled: this experiment
drives the E23 governance-session workload through the batched pipeline
and checks that

* the auditor validates **every** block of the run with zero violations
  (``audit_clean``, ``audit_coverage``);
* the per-block record stream (``blocks.jsonl``) and the audit summary
  (``audit.json``) are byte-identical across matched-seed runs
  (``records_deterministic``; the records carry no wall-clock values by
  construction);
* a seeded ``corrupt_state`` fault (single balance bit-flip after a block
  seals) is detected at exactly its block, with a forensic bundle that
  names at least one suspect account (``corrupt_detected``).

What the auditor costs is E25's ``chain.audit_ms`` row, not measured here.
"""

from __future__ import annotations

import json

from bench_chain_throughput import (
    _make_chain,
    _session_actors,
    _settled,
    _submit_session,
)
from repro.bench import Experiment, format_table, higher_is_better
from repro.chain.audit import install_state_corruption

# A governance session is ~2.6M gas, so ~11 sessions fill one 30M block;
# these counts guarantee multi-block runs (the corruption target must be
# a block that actually gets mined).
SESSION_COUNT = 24
QUICK_COUNT = 12
CORRUPT_BLOCK = 2


def _run(count: int, *, corrupt_block: int | None = None,
         seed: int = 2400) -> dict:
    """Drive ``count`` governance sessions through the batched pipeline."""
    chain, rng = _make_chain(seed)
    if corrupt_block is not None:
        install_state_corruption(chain, corrupt_block, seed=seed)
    sessions = _session_actors(chain, rng, count)
    workloads = []
    for index, (consumer, executor, providers) in enumerate(sessions):
        workload, _ = _submit_session(chain, consumer, executor,
                                      providers, index)
        workloads.append(workload)
    while len(chain.mempool):
        chain.mine_block()
    audit = chain.auditor.summary()
    return {
        "blocks": chain.height,
        "settled": _settled(chain, workloads),
        # What ChainRunRecorder writes to blocks.jsonl and audit.json.
        "records_blob": "\n".join(
            json.dumps(record, sort_keys=True)
            for record in chain.observer.records
        ),
        "audit_blob": json.dumps(audit, sort_keys=True),
        "audit": audit,
        "bundles": chain.auditor.bundles,
    }


def run_bench(quick: bool = False) -> dict:
    count = QUICK_COUNT if quick else SESSION_COUNT
    observed = _run(count)
    replay = _run(count)
    corrupted = _run(count, corrupt_block=CORRUPT_BLOCK)

    audit = observed["audit"]
    deterministic = (
        observed["records_blob"] == replay["records_blob"]
        and observed["audit_blob"] == replay["audit_blob"]
    )
    bad = corrupted["audit"]

    rows = [
        ["observed + audited", observed["blocks"],
         f"{audit['blocks_checked']} checked / "
         f"{audit['violation_count']} violations"],
        ["corrupted", corrupted["blocks"],
         f"{bad['violation_count']} violations"],
    ]
    lines = format_table(["regime", "blocks", "audit"], rows)
    lines.append("")
    lines.append(f"records identical        {deterministic}")

    metrics = {
        "blocks_audited": higher_is_better(float(audit["blocks_checked"]),
                                           unit="blocks",
                                           threshold_pct=1.0),
    }
    claims = {
        "all_settled": observed["settled"] == count,
        "audit_clean": audit["violation_count"] == 0,
        "audit_coverage": (audit["blocks_checked"] == observed["blocks"]
                           and observed["blocks"] > 0),
        "records_deterministic": deterministic,
        # Caught at exactly the corrupted block, every forensic bundle
        # naming a suspect account.
        "corrupt_detected": (
            bad["violation_count"] > 0
            and {v["block"] for v in bad["violations"]} == {CORRUPT_BLOCK}
            and all(b["suspect_accounts"] for b in corrupted["bundles"])
        ),
    }
    return {"metrics": metrics, "lines": lines, "claims": claims}


EXPERIMENT = Experiment("E24", "chain observability: audit coverage + "
                        "record determinism", run_bench)
