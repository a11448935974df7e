"""The session record and the pause path: record, digest, ``run()`` again.

``WorkloadSession.record()`` is the one projection of a session —
seed-determined progress only, no event trail — whose digest is what a
replay is verified against and which a failure carries as its snapshot.
The paused session itself stays a live object: ``run()`` again continues it
at ``next_phase``, byte-identically to an uninterrupted run, and a terminal
session refuses to run.
"""

from __future__ import annotations

from hashlib import sha256

import numpy as np
import pytest

from repro.core import (
    CHECKPOINT_FORMAT,
    FaultInjector,
    FaultKind,
    FaultPlan,
    Marketplace,
    MLTrainingKind,
    ModelSpec,
    TrainingSpec,
    WorkloadSpec,
    job_fault_seed,
)
from repro.core.lifecycle import (
    LIFECYCLE_PHASES,
    TERMINAL_COMPLETE,
    TERMINAL_FAILED,
)
from repro.errors import (
    InjectedFaultError,
    LifecycleError,
    PDS2Error,
    SessionPaused,
    TransitionError,
)
from repro.ml.datasets import (
    make_iot_activity,
    split_dirichlet,
    train_test_split,
)
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation
from repro.utils.serialization import canonical_json, canonical_json_bytes

N_PROVIDERS = 2
N_EXECUTORS = 2


def build_market(seed: int = 42):
    rng = np.random.default_rng(seed)
    data = make_iot_activity(300, rng)
    train, validation = train_test_split(data, 0.25, rng)
    parts = split_dirichlet(train, N_PROVIDERS, 1.0, rng, min_samples=15)
    market = Marketplace(seed=seed, validators=1, mint_deeds=False)
    for index, part in enumerate(parts):
        market.add_provider(f"u{index}", part,
                            SemanticAnnotation("heart_rate", {}))
    consumer = market.add_consumer("c", validation=validation)
    for index in range(N_EXECUTORS):
        market.add_executor(f"e{index}")
    return market, consumer


def make_kind() -> MLTrainingKind:
    return MLTrainingKind(WorkloadSpec(
        workload_id="wl-checkpoint",
        requirement=ConceptRequirement("physiological"),
        model=ModelSpec(family="softmax", num_features=6, num_classes=5),
        training=TrainingSpec(steps=10, learning_rate=0.3),
        reward_pool=600_000,
        min_providers=2,
        min_samples=20,
        required_confirmations=2,
    ))


def report_key(report) -> str:
    """Canonical fingerprint over every seed-determined settlement field."""
    return canonical_json({
        "params": report.final_params,
        "hash": report.result_hash,
        "payouts": report.payouts,
        "gas": report.gas_used,
        "blocks": report.blocks_mined,
        "score": report.consumer_score,
        "weights": report.weights_bps,
        "session": report.session_id,
        "clean": report.audit.clean,
        "degraded": report.degraded,
    })


class _PauseAt:
    """Raise :class:`SessionPaused` at each of the given boundary indices."""

    def __init__(self, *ks: int):
        self.ks = set(ks)
        self.fired = 0

    def __call__(self, session, next_phase):
        boundary = self.fired
        self.fired += 1
        if boundary in self.ks:
            raise SessionPaused("pause for checkpoint")


@pytest.fixture(scope="module")
def baseline_key() -> str:
    market, consumer = build_market()
    report = market.session_for(consumer, make_kind()).run()
    return report_key(report)


#: The happy path fires a boundary after each phase except the last
#: (audit -> TERMINAL_COMPLETE is not a re-entry point).
HAPPY_BOUNDARIES = len(LIFECYCLE_PHASES) - 1


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("boundary", range(HAPPY_BOUNDARIES))
    def test_pause_serialize_restore_resume_every_boundary(
            self, boundary, baseline_key):
        market, consumer = build_market()
        session = market.session_for(consumer, make_kind(),
                                     on_phase_boundary=_PauseAt(boundary))
        with pytest.raises(SessionPaused):
            session.run()

        blob = canonical_json_bytes(session.record())
        # Byte-stable, and the digest is over exactly these bytes.
        assert canonical_json_bytes(session.record()) == blob
        assert session.digest() == sha256(blob).hexdigest()
        assert session.record()["format"] == CHECKPOINT_FORMAT

        session_id = session.session_id
        report = session.run()
        assert report.session_id == session_id
        assert report_key(report) == baseline_key

    def test_created_state_checkpoint_runs_from_scratch(self, baseline_key):
        market, consumer = build_market()
        session = market.session_for(consumer, make_kind())
        record = session.record()
        assert (record["state"], record["next_phase"]) == \
            ("created", "deploy")
        assert report_key(session.run()) == baseline_key

    def test_digest_is_process_portable(self):
        # Twin markets paused at the same boundary produce the same digest
        # even though their trails carry different wall-clock readings: the
        # digest covers progress, not timing.
        digests = []
        for _ in range(2):
            market, consumer = build_market()
            session = market.session_for(consumer, make_kind(),
                                         on_phase_boundary=_PauseAt(3))
            with pytest.raises(SessionPaused):
                session.run()
            digests.append(session.digest())
        assert digests[0] == digests[1]

    def test_to_bytes_carries_no_trail(self):
        market, consumer = build_market()
        session = market.session_for(consumer, make_kind(),
                                     on_phase_boundary=_PauseAt(4))
        with pytest.raises(SessionPaused):
            session.run()
        assert session.trail
        record = session.record()
        assert "trail" not in record
        blob = canonical_json_bytes(record)
        assert b"wall_time" not in blob and b"phase.started" not in blob
        # Trail-derived accounting is in the record as totals.
        assert record["gas_used"] == session.gas_used
        assert record["blocks_mined"] == session.blocks_mined


def _names(session) -> list[str]:
    return [event.name for event in session.trail]


class TestRunAgain:
    def test_two_consecutive_pauses(self, baseline_key):
        market, consumer = build_market()
        session = market.session_for(consumer, make_kind(),
                                     on_phase_boundary=_PauseAt(2, 3))
        with pytest.raises(SessionPaused):
            session.run()
        assert session.next_phase == "attest_and_submit"
        with pytest.raises(SessionPaused):
            session.run()
        assert session.next_phase == "start_execution"
        assert report_key(session.run()) == baseline_key

    def test_one_started_and_one_resumed_per_resume(self):
        market, consumer = build_market()
        session = market.session_for(consumer, make_kind(),
                                     on_phase_boundary=_PauseAt(1, 5))
        with pytest.raises(SessionPaused):
            session.run()
        assert _names(session).count("session.started") == 1
        assert _names(session).count("session.resumed") == 0
        with pytest.raises(SessionPaused):
            session.run()
        assert _names(session).count("session.resumed") == 1
        session.run()
        names = _names(session)
        assert names.count("session.started") == 1
        assert names.count("session.resumed") == 2
        assert names.count("session.completed") == 1
        resumed = [event for event in session.trail
                   if event.name == "session.resumed"]
        assert [event.data["phase"] for event in resumed] == \
            ["register_executors", "aggregate"]
        # Every phase ran exactly once across the three run() calls.
        assert names.count("phase.completed") == len(LIFECYCLE_PHASES)

    def test_complete_session_refuses_to_run(self):
        market, consumer = build_market()
        session = market.session_for(consumer, make_kind())
        session.run()
        assert session.state == TERMINAL_COMPLETE
        self._assert_refuses(market, session)

    def test_failed_session_refuses_to_run(self):
        market, consumer = build_market()
        session = market.session_for(
            consumer, make_kind(), injector=FaultInjector(
                FaultPlan.single(FaultKind.CRASH_EXECUTE, target="e1")))
        with pytest.raises(LifecycleError):  # recover=False: terminal
            session.run()
        assert session.state == TERMINAL_FAILED
        self._assert_refuses(market, session)

    @staticmethod
    def _assert_refuses(market, session):
        height = market.chain.height
        events = len(session.trail)
        with pytest.raises(TransitionError):
            session.run()
        assert market.chain.height == height
        assert len(session.trail) == events


class TestSnapshotConsistency:
    def test_snapshot_matches_checkpoint_mid_run(self):
        # A failure's snapshot *is* the session record at the moment it
        # was raised: same keys, same progress, same format tag.
        market, consumer = build_market()
        session = market.session_for(
            consumer, make_kind(), injector=FaultInjector(
                FaultPlan.single(FaultKind.CRASH_EXECUTE, target="e1")))
        with pytest.raises(InjectedFaultError) as excinfo:
            session.run()
        snapshot = excinfo.value.snapshot
        record = session.record()
        assert set(snapshot) == set(record)
        assert snapshot["format"] == CHECKPOINT_FORMAT
        assert snapshot["state"] == "execute"
        for key in ("session_id", "next_phase", "registered", "submitted",
                    "certified", "executed", "voted", "dropped_providers",
                    "retries", "participants", "workload_address"):
            assert snapshot[key] == record[key], key

    def test_snapshot_bookkeeping_sets_are_sorted_lists(self):
        market, consumer = build_market()
        session = market.session_for(consumer, make_kind(),
                                     on_phase_boundary=_PauseAt(5))
        with pytest.raises(SessionPaused):
            session.run()
        record = session.record()
        for field in ("registered", "submitted", "certified", "executed",
                      "voted", "dropped_providers"):
            assert record[field] == sorted(record[field])


class TestRecordInAnyState:
    def test_terminal_session_has_a_record(self):
        market, consumer = build_market()
        session = market.session_for(consumer, make_kind())
        session.run()
        record = session.record()
        assert record["state"] == TERMINAL_COMPLETE
        assert record["payouts"] == session.ctx.payouts
        assert session.digest() == \
            sha256(canonical_json_bytes(record)).hexdigest()


class TestInjectorStateRoundTrip:
    def test_job_fault_seed_is_stable_and_separated(self):
        assert job_fault_seed("job-0001") == job_fault_seed("job-0001")
        assert job_fault_seed("job-0001") != job_fault_seed("job-0002")

    def test_for_job_equals_sample_at_derived_seed(self):
        executors, providers = ("e0", "e1"), ("u0", "u1")
        by_job = FaultPlan.for_job("job-0042", 0.5, executors, providers)
        by_seed = FaultPlan.sample(0.5, executors, providers,
                                   seed=job_fault_seed("job-0042"))
        assert by_job.to_dict() == by_seed.to_dict()

    def test_checkpoint_carries_injector_state(self):
        market, consumer = build_market()
        plan = FaultPlan.sample(0.9, ("e0", "e1"), ("u0", "u1"), seed=3)
        injector = FaultInjector(plan)
        session = market.session_for(consumer, make_kind(),
                                     injector=injector,
                                     on_phase_boundary=_PauseAt(2))
        try:
            session.run()
        except SessionPaused:
            pass
        except Exception:
            pytest.skip("fault terminated the session before boundary 2")
        assert session.record()["injector"] == injector.state_dict()
        # An unarmed session's record has no injector key at all (absent,
        # not null — the bytes every journaled digest was taken over).
        market, consumer = build_market()
        bare = market.session_for(consumer, make_kind()).record()
        assert "injector" not in bare


class TestSessionPausedSemantics:
    def test_session_paused_is_not_a_lifecycle_error(self):
        assert issubclass(SessionPaused, PDS2Error)
        assert not issubclass(SessionPaused, LifecycleError)

    def test_pause_does_not_trigger_recovery_or_settlement(self):
        market, consumer = build_market()
        session = market.session_for(consumer, make_kind(),
                                     on_phase_boundary=_PauseAt(2))
        with pytest.raises(SessionPaused):
            session.run()
        assert session.ctx.recovery_log == []
        assert session.ctx.payouts == {}
        assert session.state not in ("complete", "failed")
