"""JobsDB: specs, sharded journal, torn tails, compaction, liveness and
kill records."""

from __future__ import annotations

import json
import os

import pytest

from repro.control import (
    BATCH_PENDING,
    MANIFEST_FORMAT,
    JobResult,
    JobSpec,
    JobsDB,
)
from repro.control.batch import _JournalTail
from repro.errors import JobsDBError


def make_specs(n: int = 3) -> list[JobSpec]:
    return [JobSpec(job_id=f"job-{index}", seed=index) for index in range(n)]


class TestSpecsAndResults:
    def test_spec_round_trip(self):
        spec = JobSpec(job_id="j", seed=7, params={"steps": 5},
                       fault_rate=0.25, recover=False)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_spec_digest_is_content_addressed(self):
        one = JobSpec(job_id="j", seed=7)
        two = JobSpec(job_id="j", seed=7)
        other = JobSpec(job_id="j", seed=8)
        assert one.spec_digest() == two.spec_digest()
        assert one.spec_digest() != other.spec_digest()

    def test_spec_requires_job_id(self):
        with pytest.raises(JobsDBError):
            JobSpec(job_id="", seed=0)

    def test_malformed_spec_record(self):
        with pytest.raises(JobsDBError):
            JobSpec.from_dict({"seed": 1})

    def test_result_validates_outcome(self):
        with pytest.raises(JobsDBError):
            JobResult(job_id="j", outcome="exploded")

    def test_result_round_trip_ignores_unknown_fields(self):
        result = JobResult(job_id="j", outcome="settled", gas_used=10)
        record = dict(result.to_dict(), future_field=1)
        assert JobResult.from_dict(record) == result


class TestCreateOpen:
    def test_create_writes_specs_and_pending_state(self, tmp_path):
        db = JobsDB.create(str(tmp_path / "b"), make_specs())
        assert [spec.job_id for spec in db.specs()] == \
            ["job-0", "job-1", "job-2"]
        assert db.compact()["batch"]["status"] == BATCH_PENDING

    def test_create_rejects_double_submit(self, tmp_path):
        root = str(tmp_path / "b")
        JobsDB.create(root, make_specs())
        with pytest.raises(JobsDBError):
            JobsDB.create(root, make_specs())

    def test_create_rejects_duplicate_ids_and_empty(self, tmp_path):
        with pytest.raises(JobsDBError):
            JobsDB.create(str(tmp_path / "dup"),
                          [JobSpec(job_id="x", seed=0),
                           JobSpec(job_id="x", seed=1)])
        with pytest.raises(JobsDBError):
            JobsDB.create(str(tmp_path / "empty"), [])

    def test_open_requires_submitted_batch(self, tmp_path):
        with pytest.raises(JobsDBError):
            JobsDB.open(str(tmp_path / "missing"))


class TestJournal:
    def test_records_stamped_with_shard_and_seq(self, tmp_path):
        db = JobsDB.create(str(tmp_path / "b"), make_specs())
        first = db.append({"type": "job", "job_id": "job-0",
                           "status": "started"}, shard="w0")
        second = db.append({"type": "job", "job_id": "job-0",
                            "status": "done"}, shard="w0")
        assert (first["shard"], first["seq"]) == ("w0", 1)
        assert second["seq"] == 2

    def test_torn_tail_is_tolerated(self, tmp_path):
        db = JobsDB.create(str(tmp_path / "b"), make_specs())
        db.append({"type": "job", "job_id": "job-0", "status": "started"},
                  shard="w0")
        db.close()
        # Simulate a SIGKILL mid-write: a final line without its newline.
        shard_path = os.path.join(db.journal_dir, "w0.jsonl")
        with open(shard_path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "job", "job_id": "job-0", "stat')
        records = JobsDB.open(db.root).journal_records()
        assert [r.get("status") for r in records if r.get("type") == "job"] \
            == ["started"]

    def test_corrupt_interior_line_raises(self, tmp_path):
        db = JobsDB.create(str(tmp_path / "b"), make_specs())
        shard_path = os.path.join(db.journal_dir, "w9.jsonl")
        with open(shard_path, "w", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write(json.dumps({"type": "job"}) + "\n")
        with pytest.raises(JobsDBError):
            db.journal_records()


class TestJournalTail:
    def test_reads_complete_lines_only(self, tmp_path):
        shard = tmp_path / "w0.jsonl"
        shard.write_text('{"a": 1}\n{"b": 2', encoding="utf-8")
        tail = _JournalTail(str(tmp_path))
        assert tail.poll() == [{"a": 1}]
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write('}\n')
        assert tail.poll() == [{"b": 2}]

    def test_corrupt_complete_line_raises_naming_shard_and_line(
            self, tmp_path):
        # A skipped `done` would leave its worker marked busy for good.
        shard = tmp_path / "w3.jsonl"
        shard.write_text('{"a": 1}\n', encoding="utf-8")
        tail = _JournalTail(str(tmp_path))
        assert tail.poll() == [{"a": 1}]
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write('{"type": "job", "sta\n{"b": 2}\n')
        with pytest.raises(JobsDBError, match=r"line 2 in .*w3\.jsonl"):
            tail.poll()


class TestCompaction:
    def test_lifecycle_to_done(self, tmp_path):
        db = JobsDB.create(str(tmp_path / "b"), make_specs())
        db.append({"type": "job", "job_id": "job-0", "status": "queued",
                   "attempt": 1, "worker": "w0"})
        db.append({"type": "job", "job_id": "job-0", "status": "started",
                   "attempt": 1, "worker": "w0"}, shard="w0")
        db.append({"type": "job", "job_id": "job-0", "status": "checkpoint",
                   "attempt": 1, "worker": "w0", "boundary": 0,
                   "phase": "match", "digest": "abc"}, shard="w0")
        result = JobResult(job_id="job-0", outcome="settled",
                           result_digest="xyz")
        db.append({"type": "job", "job_id": "job-0", "status": "done",
                   "attempt": 1, "worker": "w0",
                   "result": result.to_dict()}, shard="w0")
        index = db.compact()
        entry = index["jobs"]["job-0"]
        assert entry["status"] == "done"
        assert entry["checkpoints"]["0"]["digest"] == "abc"
        assert db.results(index)["job-0"] == result
        assert db.checkpoints_for("job-0", index) == {0: "abc"}

    def test_requeue_returns_job_to_queued(self, tmp_path):
        db = JobsDB.create(str(tmp_path / "b"), make_specs())
        db.append({"type": "job", "job_id": "job-1", "status": "started",
                   "attempt": 1, "worker": "w0"}, shard="w0")
        db.append({"type": "job", "job_id": "job-1", "status": "requeued",
                   "attempt": 1, "worker": "w0"})
        index = db.compact()
        assert index["jobs"]["job-1"]["status"] == "queued"
        assert index["jobs"]["job-1"]["attempts"] == 1

    def test_divergent_checkpoint_digests_are_flagged(self, tmp_path):
        db = JobsDB.create(str(tmp_path / "b"), make_specs())
        db.append({"type": "job", "job_id": "job-0", "status": "checkpoint",
                   "attempt": 1, "boundary": 2, "digest": "aaa"},
                  shard="w0")
        db.append({"type": "job", "job_id": "job-0", "status": "checkpoint",
                   "attempt": 2, "boundary": 2, "digest": "bbb"},
                  shard="w1")
        index = db.compact()
        assert index["divergent"] == [
            {"job_id": "job-0", "boundary": 2, "digests": ["aaa", "bbb"]}
        ]

    def test_index_keeps_trace_attempt_and_fault_evidence(self, tmp_path):
        db = JobsDB.create(str(tmp_path / "b"), make_specs())
        db.append({"type": "trace", "trace_id": "t" * 32,
                   "root_span_id": "r" * 16})
        queued = db.append({"type": "job", "job_id": "job-0",
                            "status": "queued", "attempt": 1,
                            "worker": "w0"})
        lost = db.append({"type": "worker_lost", "worker": "w0",
                          "reason": "crash", "job_id": "job-0",
                          "attempt": 1})
        requeued = db.append({"type": "job", "job_id": "job-0",
                              "status": "requeued", "attempt": 1,
                              "worker": "w0"})
        db.append({"type": "job", "job_id": "job-0", "status": "queued",
                   "attempt": 2, "worker": "w1"})
        db.append({"type": "batch", "status": "done", "worker_deaths": 0})
        index = db.compact()
        assert index["trace"] == {"trace_id": "t" * 32,
                                  "root_span_id": "r" * 16}
        runs = index["jobs"]["job-0"]["runs"]
        assert runs[1] == {"worker": "w0", "queued_ts": queued["ts"],
                           "requeued_ts": requeued["ts"]}
        assert runs[2]["worker"] == "w1"
        assert runs[2]["requeued_ts"] is None
        # The loss keeps the job and attempt the worker held; the requeue
        # that names w0 afterwards does not move a lost worker.
        assert index["lost"] == [{"worker": "w0", "reason": "crash",
                                  "job_id": "job-0", "attempt": 1,
                                  "ts": lost["ts"]}]
        assert index["workers"]["w0"] == {"status": "lost",
                                          "job_id": "job-0", "attempt": 1,
                                          "ts": lost["ts"]}
        assert index["workers"]["w1"]["status"] == "busy"
        # Counted over the journal, not read off the last batch record.
        assert (len(index["lost"]), index["requeues"]) == (1, 1)

    def test_identical_redelivered_digests_are_not_divergent(self, tmp_path):
        db = JobsDB.create(str(tmp_path / "b"), make_specs())
        for shard in ("w0", "w1"):
            db.append({"type": "job", "job_id": "job-0",
                       "status": "checkpoint", "boundary": 1,
                       "digest": "same"}, shard=shard)
        assert db.compact()["divergent"] == []


class TestLivenessAndManifest:
    def test_worker_state_follows_its_journal_records(self, tmp_path):
        db = JobsDB.create(str(tmp_path / "b"), make_specs())
        db.append({"type": "job", "job_id": "job-0", "status": "queued",
                   "attempt": 1, "worker": "w0"})
        assert db.compact()["workers"]["w0"]["status"] == "busy"
        checkpoint = db.append({"type": "job", "job_id": "job-0",
                                "status": "checkpoint", "boundary": 0,
                                "digest": "d", "attempt": 1,
                                "worker": "w0"}, shard="w0")
        assert db.compact()["workers"]["w0"] == {
            "status": "busy", "job_id": "job-0", "attempt": 1,
            "ts": checkpoint["ts"]}
        done = db.append({"type": "job", "job_id": "job-0", "status": "done",
                          "attempt": 1, "worker": "w0",
                          "result": {"outcome": "settled"}}, shard="w0")
        assert db.compact()["workers"]["w0"] == {
            "status": "idle", "job_id": "", "attempt": 0, "ts": done["ts"]}
        # No record of a worker, no state: nothing stands in for the
        # journal.
        assert sorted(os.listdir(db.root)) == ["journal", "specs.jsonl"]

    def test_kill_record_until_a_run_supersedes_it(self, tmp_path):
        db = JobsDB.create(str(tmp_path / "b"), make_specs())
        assert db.compact()["kill"] is None
        db.request_kill("operator")
        assert db.compact()["kill"]["reason"] == "operator"
        # The kill sits in a shard of its own, beside the coordinator's.
        assert sorted(os.listdir(db.journal_dir)) == ["coordinator.jsonl",
                                                      "kill.jsonl"]
        db.append({"type": "batch", "status": "running"})
        assert db.compact()["kill"] is None
        db.request_kill("again")
        assert db.compact()["kill"]["reason"] == "again"

    def test_manifest_round_trip_with_format(self, tmp_path):
        db = JobsDB.create(str(tmp_path / "b"), make_specs())
        assert db.read_manifest() is None
        db.write_manifest({"status": "done", "jobs": 3})
        manifest = db.read_manifest()
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["status"] == "done"
