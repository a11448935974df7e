"""End-to-end trace assembly and the ops plane over real batch runs.

Small-scale versions of the E22 acceptance criteria, fast enough for
tier-1: a sharded batch (with and without chaos kills) assembles into one
causally-complete tree, the critical-path report replays byte-identically,
the Chrome export validates against the checked-in schema, and ``top``
snapshots read the same directory without mutating it.
"""

from __future__ import annotations

import json
import os
import types

import pytest

from repro.control import (
    JobsDB,
    JobSpec,
    assemble_batch_trace,
    batch_execute,
    ops_snapshot,
    render_top,
    submit_batch,
    trace_ops,
)
from repro.telemetry.distributed import (
    LOST_WORKER_SPAN,
    batch_trace_context,
    critical_path,
    render_critical_path,
    to_chrome_trace,
    validate_chrome_trace,
)

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "docs", "chrome-trace.schema.json")


def specs_for(n: int, seed0: int = 700) -> list[JobSpec]:
    return [JobSpec(job_id=f"job-{index:03d}", seed=seed0 + index)
            for index in range(n)]


def run_batch(tmp_path, n=4, **kwargs):
    root = str(tmp_path / "batch")
    submit_batch(root, specs_for(n))
    report = batch_execute(root, workers=2, **kwargs)
    return root, report


class TestBatchTraceEndToEnd:
    def test_clean_batch_assembles_complete(self, tmp_path):
        root, report = run_batch(tmp_path)
        assembled = assemble_batch_trace(root)
        assert assembled.trace_id == report.trace_id
        assert assembled.completeness == 1.0
        assert assembled.orphans == []
        assert assembled.lost == []
        assert set(assembled.winners) == {s.job_id for s in specs_for(4)}
        # Every winning job span parents (transitively) to the batch root.
        names = {r["name"] for r in assembled.spans}
        assert "batch.execute" in names
        assert "batch.job" in names

    def test_trace_id_is_content_addressed(self, tmp_path):
        root, report = run_batch(tmp_path)
        expected = batch_trace_context(
            spec.spec_digest() for spec in specs_for(4))
        assert report.trace_id == expected.trace_id
        # A second directory running the same specs reuses the same trace.
        other_root = str(tmp_path / "again")
        submit_batch(other_root, specs_for(4))
        again = batch_execute(other_root, workers=2)
        assert again.trace_id == report.trace_id

    def test_chaos_kill_yields_lost_worker_span(self, tmp_path):
        root, report = run_batch(tmp_path, n=6, kill_after=[2])
        assert report.worker_deaths >= 1
        assembled = assemble_batch_trace(root)
        assert assembled.completeness == 1.0
        assert assembled.orphans == []
        assert any(r["name"] == LOST_WORKER_SPAN for r in assembled.spans)
        for synthetic in assembled.lost:
            assert synthetic["attributes"]["evidence"] == "journal"
        # The batch is its journal: nothing beside it records liveness,
        # kills or losses.
        assert sorted(os.listdir(root)) == [
            "journal", "manifest.json", "metrics.json", "spans",
            "specs.jsonl"]

    def test_critical_path_replays_byte_identically(self, tmp_path):
        root, _ = run_batch(tmp_path, n=6, kill_after=[2])
        first = render_critical_path(
            critical_path(assemble_batch_trace(root)))
        second = render_critical_path(
            critical_path(assemble_batch_trace(root)))
        assert first == second
        # And against an un-killed run of the same specs: the winning
        # attempts' sim-clock story is identical, so the report is too.
        other_root = str(tmp_path / "calm")
        submit_batch(other_root, specs_for(6))
        batch_execute(other_root, workers=2)
        calm = render_critical_path(
            critical_path(assemble_batch_trace(other_root)))
        assert calm == first

    def test_chrome_export_validates(self, tmp_path):
        root, _ = run_batch(tmp_path, n=4, kill_after=[1])
        with open(SCHEMA_PATH, encoding="utf-8") as handle:
            schema = json.load(handle)
        doc = to_chrome_trace(assemble_batch_trace(root))
        assert validate_chrome_trace(doc, schema) == []
        json.loads(json.dumps(doc))
        # One instant per journaled worker loss and per requeue.
        records = JobsDB(root).journal_records()
        losses = sum(r["type"] == "worker_lost" for r in records)
        requeues = sum(r.get("status") == "requeued" for r in records)
        instants = [e["name"] for e in doc["traceEvents"] if e["ph"] == "i"]
        assert losses >= 1
        assert instants.count("worker.lost") == losses
        assert instants.count("job.requeued") == requeues
        assert len(instants) == losses + requeues

    def test_bounding_job_is_the_one_with_the_most_sim_time(self, tmp_path):
        # job-000 onboards a third provider, so its market's clock ends
        # later; job-001 would win a tie on its id.
        root = str(tmp_path / "batch")
        submit_batch(root, [
            JobSpec(job_id="job-000", seed=700, params={"providers": 3}),
            JobSpec(job_id="job-001", seed=701)])
        batch_execute(root, workers=2)
        assembled = assemble_batch_trace(root)
        jobs = {r["job_id"]: r for r in assembled.job_spans()
                if r["name"] == "batch.job"}
        for job_id, job in jobs.items():
            (session,) = [r for r in assembled.job_spans()
                          if r["job_id"] == job_id
                          and r["name"] == "lifecycle.session"]
            # A job span ends at its market's final clock: its session's.
            assert job["start_sim"] == 0.0
            assert job["end_sim"] == session["end_sim"] > 0.0
        assert jobs["job-000"]["end_sim"] > jobs["job-001"]["end_sim"]
        path = critical_path(assembled)
        assert path.job_id == "job-000"
        assert path.total_sim == max(r["sim_duration"] for r in jobs.values())

    def test_job_spans_carry_trace_context(self, tmp_path):
        root, report = run_batch(tmp_path, n=2)
        assembled = assemble_batch_trace(root)
        for record in assembled.job_spans():
            assert record["trace_id"] == report.trace_id
            if record["name"] == "batch.job":
                attrs = record["attributes"]
                assert attrs.get("trace_id") == report.trace_id


class TestOpsSnapshot:
    def test_snapshot_of_finished_batch(self, tmp_path):
        root, report = run_batch(tmp_path, n=4)
        snap = ops_snapshot(root)
        assert snap.batch_status == "done"
        assert snap.trace_id == report.trace_id
        assert snap.jobs == 4
        assert snap.counts.get("settled", 0) == 4
        assert snap.settled_fraction == 1.0
        assert snap.settled_burn == pytest.approx(0.0)
        assert snap.p95_burn is not None and snap.p95_burn >= 0.0
        assert snap.worker_deaths == 0

    def test_snapshot_counts_chaos_faults(self, tmp_path):
        root, report = run_batch(tmp_path, n=6, kill_after=[2])
        snap = ops_snapshot(root)
        assert snap.worker_deaths == report.worker_deaths >= 1
        assert snap.requeues >= 1
        assert snap.retries  # the requeued job needed a second attempt
        assert all(attempts >= 2 for attempts in snap.retries.values())

    def test_running_batch_shows_its_worker_death(self, tmp_path):
        # The chaos kill lands just before progress is reported, so a
        # console refresh from the callback already sees the death.
        root = str(tmp_path / "batch")
        submit_batch(root, specs_for(6))
        seen = []

        def progress(done: int, total: int) -> None:
            if done:
                seen.append(ops_snapshot(root))

        report = batch_execute(root, workers=2, kill_after=[1],
                               progress=progress)
        assert report.worker_deaths == 1
        running = [snap for snap in seen if snap.batch_status == "running"]
        assert running
        assert max(snap.worker_deaths for snap in running) >= 1

    def test_killed_worker_reads_lost(self, tmp_path):
        root, report = run_batch(tmp_path, n=6, kill_after=[2])
        snap = ops_snapshot(root)
        (loss,) = JobsDB(root).compact()["lost"]
        lost = {worker: info for worker, info in snap.workers.items()
                if info["status"] == "lost"}
        assert report.worker_deaths == len(lost) == 1
        # The pane shows the job and attempt the worker died holding, not
        # the job the coordinator's later requeue record names it for.
        info = lost[loss["worker"]]
        assert (info["job_id"], info["attempt"]) == (loss["job_id"],
                                                     loss["attempt"])
        assert info["job_id"] in report.results
        assert all(info["status"] == "idle"
                   for worker, info in snap.workers.items()
                   if worker not in lost)

    def test_resumed_batch_keeps_its_worker_death(self, tmp_path):
        root, report = run_batch(tmp_path, n=6, kill_after=[2])
        assert report.worker_deaths == 1
        resumed = batch_execute(root, workers=2)
        assert resumed.worker_deaths == 0  # the manifest counts one run
        assert resumed.batch_digest == report.batch_digest
        snap = ops_snapshot(root)
        assert snap.batch_status == "done"
        assert (snap.worker_deaths, snap.requeues) == (1, report.requeues)
        assert snap.batch_digest == report.batch_digest

    def test_snapshot_is_read_only(self, tmp_path):
        root, _ = run_batch(tmp_path, n=2)
        names = sorted(os.listdir(root))
        stamps = {name: os.path.getmtime(os.path.join(root, name))
                  for name in names if os.path.isfile(os.path.join(root,
                                                                   name))}
        ops_snapshot(root)
        assert sorted(os.listdir(root)) == names
        for name, stamp in stamps.items():
            assert os.path.getmtime(os.path.join(root, name)) == stamp

    def test_burns_none_before_any_terminal_job(self, tmp_path):
        root = str(tmp_path / "pending")
        submit_batch(root, specs_for(2))
        snap = ops_snapshot(root)
        assert snap.settled_burn is None
        assert snap.p95_burn is None
        assert snap.batch_status == "pending"

    def test_render_top_panel_shape(self, tmp_path, monkeypatch):
        root, _ = run_batch(tmp_path, n=6, kill_after=[2])
        monkeypatch.setattr(trace_ops, "time",
                            types.SimpleNamespace(time=lambda: 1e12))
        snap = ops_snapshot(root)
        panel = render_top(snap)
        assert panel.startswith(f"batch {root}")
        assert f"trace {snap.trace_id}" in panel
        assert "slo: settled=1.000 burn=0.00x" in panel
        assert f"worker_deaths={snap.worker_deaths}" in panel
        assert "retried jobs:" in panel
        assert "workers:" in panel
        assert "divergent=0" in panel
        assert f"batch digest: {snap.batch_digest}" in panel
        assert len(snap.batch_digest) == 64
        # Workers last seen long ago (the clock reads 1e12) are flagged
        # stale.
        assert "STALE" in panel

    def test_stale_objective_overrides_flag_burn(self, tmp_path,
                                                 monkeypatch):
        root, _ = run_batch(tmp_path, n=2)
        monkeypatch.setattr(trace_ops, "DEFAULT_SETTLED_OBJECTIVE", 0.999999)
        monkeypatch.setattr(trace_ops, "DEFAULT_P95_OBJECTIVE_S", 1e-9)
        snap = ops_snapshot(root)
        assert snap.p95_burn is not None
        panel = render_top(snap)
        assert "!" in panel  # over-budget burns are flagged
