"""Batch execution: sharding, chaos kills, resume, digest identity.

Small-scale versions of the E21 acceptance criteria, fast enough for
tier-1: a sharded batch settles byte-identically against bare single
process replays, survives a SIGKILLed worker via re-queue with replay
verification, reaps a worker whose journal falls silent, honors a
journaled operator kill, and classifies terminal states (DONE /
PARTIAL_FAILED / FAILED) correctly.
"""

from __future__ import annotations

import time

import pytest

from repro.control import batch as batch_module
from repro.control import supervisor
from repro.control import (
    BATCH_DONE,
    BATCH_FAILED,
    BATCH_PARTIAL_FAILED,
    JobContext,
    JobSpec,
    JobsDB,
    batch_digest_of,
    batch_execute,
    run_job,
    submit_batch,
)
from repro.errors import BatchError, JobsDBError


def clean_specs(n: int, seed0: int = 500) -> list[JobSpec]:
    return [JobSpec(job_id=f"job-{index:03d}", seed=seed0 + index)
            for index in range(n)]


class TestRunJob:
    def test_deterministic_digest(self):
        spec = JobSpec(job_id="j", seed=11)
        one, two = run_job(spec), run_job(spec)
        assert one.outcome == "settled"
        assert one.result_digest == two.result_digest != ""
        assert one.boundaries > 0

    def test_faulted_job_is_deterministic_too(self):
        spec = JobSpec(job_id="jf", seed=13, fault_rate=0.6)
        one, two = run_job(spec), run_job(spec)
        assert one.outcome in ("settled", "settled_degraded", "failed")
        assert one.result_digest == two.result_digest
        assert one.faults_injected == two.faults_injected

    def test_unknown_workload_is_an_error_outcome(self):
        result = run_job(JobSpec(job_id="j", seed=1, workload="no-such"))
        assert result.outcome == "error"
        assert "no handler" in result.error

    def test_replay_divergence_is_an_error_outcome(self):
        spec = JobSpec(job_id="j", seed=11)
        honest = run_job(spec)
        assert honest.outcome == "settled"
        # Claim a wrong digest for boundary 0: replay verification must
        # refuse to sail past it.
        poisoned = JobContext(attempt=2,
                              resume_digests={0: "0" * 64})
        result = run_job(spec, poisoned)
        assert result.outcome == "error"
        assert "diverged" in result.error

    def test_replay_verification_reports_resumed_boundary(self):
        spec = JobSpec(job_id="j", seed=11)
        captured: dict[int, str] = {}

        class Capture(JobContext):
            """JobContext.journal is a no-op without a db; tap it."""

            def journal(self, record):
                if record.get("status") == "checkpoint":
                    captured[record["boundary"]] = record["digest"]

        first = run_job(spec, Capture())
        # Feed genuine digests from the dead attempt back in: the retry
        # verifies them and records how far the replay was checked.
        retry = JobContext(attempt=2,
                           resume_digests={0: captured[0], 1: captured[1]})
        result = run_job(spec, retry)
        assert result.outcome == "settled"
        assert result.resumed_boundary == 1
        assert result.result_digest == first.result_digest


class TestBatchExecute:
    def test_small_batch_settles_and_matches_baseline(self, tmp_path):
        specs = clean_specs(6)
        root = str(tmp_path / "batch")
        submit_batch(root, specs)
        report = batch_execute(root, workers=2)
        assert report.status == BATCH_DONE
        assert len(report.results) == 6
        assert report.counts == {"settled": 6}
        baseline = {spec.job_id: run_job(spec) for spec in specs}
        for job_id, result in report.results.items():
            assert result.result_digest == baseline[job_id].result_digest
        assert report.batch_digest == batch_digest_of(
            {job_id: baseline[job_id] for job_id in baseline})
        db = JobsDB.open(root)
        manifest = db.read_manifest()
        assert manifest["status"] == BATCH_DONE
        assert manifest["batch_digest"] == report.batch_digest
        assert (tmp_path / "batch" / "metrics.json").exists()
        assert not (tmp_path / "batch" / "index.json").exists()

    def test_chaos_kill_requeues_and_still_matches(self, tmp_path):
        specs = clean_specs(8, seed0=700)
        root = str(tmp_path / "batch")
        submit_batch(root, specs)
        report = batch_execute(root, workers=2, kill_after=[2])
        assert report.status == BATCH_DONE
        assert report.worker_deaths >= 1
        assert report.requeues >= 1
        assert not report.divergent
        for spec in specs:
            assert (report.results[spec.job_id].result_digest
                    == run_job(spec).result_digest)

    def test_chaos_kill_lands_when_jobs_are_shorter_than_a_poll(
            self, tmp_path, monkeypatch):
        # With a poll this slow every job is finished by the time the
        # coordinator looks again; the kill must still find a victim.
        monkeypatch.setattr("repro.control.batch._POLL_S", 0.4)
        specs = clean_specs(6, seed0=720)
        root = str(tmp_path / "batch")
        submit_batch(root, specs)
        report = batch_execute(root, workers=2, kill_after=[2])
        assert report.status == BATCH_DONE
        assert report.worker_deaths == 1
        assert report.requeues == 1
        assert not report.divergent

    def test_partial_failed_only_for_intentionally_faulted(self, tmp_path):
        # recover=False makes an injected fault deterministically terminal.
        specs = clean_specs(3, seed0=800)
        specs.append(JobSpec(job_id="job-faulted", seed=900,
                             fault_rate=0.9, recover=False))
        root = str(tmp_path / "batch")
        submit_batch(root, specs)
        report = batch_execute(root, workers=2)
        failed = [r for r in report.results.values() if not r.ok]
        assert failed, "expected the armed job to fail deterministically"
        assert all(r.outcome == "failed" for r in failed)
        assert report.status == BATCH_PARTIAL_FAILED

    def test_handler_error_fails_the_batch(self, tmp_path):
        specs = clean_specs(2, seed0=850)
        specs.append(JobSpec(job_id="job-bad", seed=0, workload="no-such"))
        root = str(tmp_path / "batch")
        submit_batch(root, specs)
        report = batch_execute(root, workers=2)
        assert report.status == BATCH_FAILED
        assert report.results["job-bad"].outcome == "error"

    def test_operator_kill_aborts_then_resume_completes(self, tmp_path):
        # The coordinator reports progress just before it sleeps and folds
        # the journal at the top of its next loop, so a kill record
        # journaled when the first result is counted lands with 29 jobs
        # still queued or running, however fast sessions are.
        specs = clean_specs(30, seed0=950)
        root = str(tmp_path / "batch")
        submit_batch(root, specs)
        db = JobsDB.open(root)

        def kill_at_first_result(done: int, total: int) -> None:
            if done:
                db.request_kill("test")

        aborted = batch_execute(root, workers=2, progress=kill_at_first_result)
        assert aborted.status == BATCH_FAILED
        assert aborted.aborted
        assert len(aborted.results) < 30
        assert db.compact()["kill"]["reason"] == "test"

        resumed = batch_execute(root, workers=2)
        assert resumed.status == BATCH_DONE
        assert len(resumed.results) == 30
        # The resumed run's `running` record superseded the kill, which
        # stays in the journal; its workers got fresh ids (and shards).
        index = db.compact()
        assert index["kill"] is None
        assert sorted(index["workers"]) == ["w0", "w1", "w2", "w3"]
        kills = [r for r in db.journal_records() if r["type"] == "kill"]
        assert kills and {r["shard"] for r in kills} == {"kill"}
        # Jobs settled before the abort are not re-run on resume.
        for job_id, result in aborted.results.items():
            assert resumed.results[job_id].attempt == result.attempt

    def test_kill_journaled_before_a_run_does_not_abort_it(self, tmp_path):
        root = str(tmp_path / "batch")
        submit_batch(root, clean_specs(3, seed0=970))
        JobsDB.open(root).request_kill("stale")
        report = batch_execute(root, workers=2)
        assert report.status == BATCH_DONE
        assert not report.aborted
        assert len(report.results) == 3

    def test_silent_busy_worker_is_reaped_hung_and_requeued(
            self, tmp_path, monkeypatch):
        # The forked worker inherits both patches: job-001's first attempt
        # journals `started` and then nothing, so once the threshold passes
        # the coordinator reaps it `hung`, and attempt 2 settles it.
        real = supervisor.run_ml_train

        def stall_first_attempt(spec, ctx):
            if spec.job_id == "job-001" and ctx.attempt == 1:
                time.sleep(600)
            return real(spec, ctx)

        monkeypatch.setattr(supervisor, "run_ml_train", stall_first_attempt)
        monkeypatch.setattr(batch_module, "_SILENCE_TIMEOUT_S", 2.0)
        root = str(tmp_path / "batch")
        submit_batch(root, clean_specs(3, seed0=980))
        report = batch_execute(root, workers=2)
        assert report.status == BATCH_DONE
        assert (report.worker_deaths, report.requeues) == (1, 1)
        assert report.results["job-001"].attempt == 2
        lost = JobsDB.open(root).compact()["lost"]
        assert [(loss["reason"], loss["job_id"], loss["attempt"])
                for loss in lost] == [("hung", "job-001", 1)]

    def test_rejects_zero_workers(self, tmp_path):
        root = str(tmp_path / "batch")
        submit_batch(root, clean_specs(1))
        with pytest.raises(BatchError):
            batch_execute(root, workers=0)

    def test_rejects_zero_attempts(self, tmp_path):
        root = str(tmp_path / "batch")
        submit_batch(root, clean_specs(1))
        with pytest.raises(BatchError):
            batch_execute(root, workers=1, max_attempts=0)

    def test_rejects_unsubmitted_root(self, tmp_path):
        with pytest.raises(JobsDBError):
            batch_execute(str(tmp_path / "nope"), workers=1)
