"""E24: chain observability — audit coverage, record determinism.

The ops plane added for the chain (per-block analytics records and the
always-on invariant auditor) must be safe to leave enabled: this experiment
drives the E23 governance-session workload through the batched pipeline
and checks that

* the auditor validates **every** block of the run with zero violations
  (``audit_clean``, ``audit_coverage`` — gated);
* the per-block record stream (``blocks.jsonl``) and the audit summary
  (``audit.json``) are byte-identical across matched-seed runs
  (``records_deterministic`` — gated; the records carry no wall-clock
  values by construction);
* a seeded ``corrupt_state`` fault (single balance bit-flip after a block
  seals) is detected at exactly its block, with a forensic bundle that
  names at least one suspect account (``corrupt_detected`` — gated).

What the auditor costs is E25's ``chain.audit_ms`` row, not measured here.

``python benchmarks/bench_e24_chain_observability.py --smoke`` runs the
CI smoke: one clean run (exit nonzero on any violation) and one corrupted
run (exit nonzero unless the auditor catches it).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from bench_chain_throughput import (  # noqa: E402
    _make_chain,
    _session_actors,
    _settled,
    _submit_session,
)
from repro.bench import Experiment, higher_is_better  # noqa: E402
from repro.chain.audit import install_state_corruption  # noqa: E402
from repro.crypto import ecdsa  # noqa: E402
from reporting import format_table, report  # noqa: E402

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
    # Matched seeds replay identical transactions; a record's ``verify``
    # stats count what the batch verifier had to check, so every run
    # starts, as a fresh process would, with nothing verified before.
    ecdsa._VERIFY_CACHE.clear()
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
    audit_clean = audit["violation_count"] == 0
    audit_coverage = (audit["blocks_checked"] == observed["blocks"]
                      and observed["blocks"] > 0)
    deterministic = (
        observed["records_blob"] == replay["records_blob"]
        and observed["audit_blob"] == replay["audit_blob"]
    )
    bad = corrupted["audit"]
    detected = (
        bad["violation_count"] > 0
        and {v["block"] for v in bad["violations"]} == {CORRUPT_BLOCK}
        and bool(bad["violations"])
        and all(b["suspect_accounts"] for b in corrupted["bundles"])
    )

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
        "audit_clean": higher_is_better(1.0 if audit_clean else 0.0,
                                        threshold_pct=1.0),
        "audit_coverage": higher_is_better(1.0 if audit_coverage else 0.0,
                                           threshold_pct=1.0),
        "records_deterministic": higher_is_better(
            1.0 if deterministic else 0.0, threshold_pct=1.0
        ),
        "corrupt_detected": higher_is_better(1.0 if detected else 0.0,
                                             threshold_pct=1.0),
        "blocks_audited": higher_is_better(float(audit["blocks_checked"]),
                                           unit="blocks",
                                           threshold_pct=1.0),
    }
    return {
        "metrics": metrics, "lines": lines, "audit_clean": audit_clean,
        "audit_coverage": audit_coverage, "deterministic": deterministic,
        "detected": detected,
        "settled": observed["settled"], "count": count,
    }


EXPERIMENT = Experiment("E24", "chain observability: audit coverage + "
                        "record determinism", run_bench)


def test_e24_chain_observability():
    payload = run_bench(quick=True)
    report("E24", "chain observability (ops plane, invariant auditor)",
           payload["lines"])

    assert payload["settled"] == payload["count"]
    assert payload["audit_clean"]
    assert payload["audit_coverage"]
    assert payload["deterministic"]
    assert payload["detected"]


def _smoke() -> int:
    """CI smoke: auditor-clean run + seeded corruption detection."""
    clean = _run(QUICK_COUNT)
    audit = clean["audit"]
    print(f"E24 smoke: {clean['blocks']} blocks, "
          f"{audit['blocks_checked']} audited, "
          f"{audit['violation_count']} violations")
    if audit["violation_count"]:
        print("FAIL: invariant violations on an untampered run")
        return 1
    if audit["blocks_checked"] != clean["blocks"]:
        print("FAIL: auditor skipped blocks")
        return 1
    corrupted = _run(QUICK_COUNT, corrupt_block=CORRUPT_BLOCK)
    bad = corrupted["audit"]
    if not bad["violation_count"]:
        print("FAIL: seeded corrupt_state fault went undetected")
        return 1
    if {v["block"] for v in bad["violations"]} != {CORRUPT_BLOCK}:
        print("FAIL: violations not pinned to the corrupted block")
        return 1
    if not all(b["suspect_accounts"] for b in corrupted["bundles"]):
        print("FAIL: forensic bundle names no suspect account")
        return 1
    suspects = corrupted["bundles"][0]["suspect_accounts"]
    print(f"OK: corruption at block {CORRUPT_BLOCK} detected, "
          f"suspects {suspects}")
    return 0


if __name__ == "__main__":
    sys.exit(_smoke() if "--smoke" in sys.argv else 0)
