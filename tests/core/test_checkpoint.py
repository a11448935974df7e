"""The session record and the pause path: record, digest, drive on.

``WorkloadSession.record()`` is the one projection of a session —
seed-determined progress only, no event trail — whose digest is what a
replay is verified against and which, on a failed session, names where the
run died.
A paused session is a generator left at a phase boundary: driving it on
continues it at ``next_phase``, byte-identically to an uninterrupted run,
and a session whose steps already ran refuses to run.
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
    WorkloadSession,
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


def settled_key(session) -> str:
    """Canonical fingerprint over every seed-determined settlement field."""
    ctx = session.ctx
    return canonical_json({
        "params": ctx.result_vector,
        "hash": ctx.result_hash,
        "payouts": ctx.payouts,
        "gas": session.gas_used,
        "blocks": session.blocks_mined,
        "score": session.consumer.evaluate_result(session.kind.spec,
                                                  ctx.result_vector),
        "weights": ctx.weights_bps,
        "session": session.session_id,
        "clean": ctx.audit.clean,
        "degraded": ctx.degraded,
    })


def paused_at(session, boundary: int):
    """Drive ``session`` to phase boundary ``boundary`` and leave it there;
    returns its driver (iterate it to continue)."""
    driver = session.market.drive(session.steps(), session)
    for _ in range(boundary + 1):
        next(driver)
    return driver


def finish(driver) -> None:
    for _ in driver:
        pass


@pytest.fixture(scope="module")
def baseline_key() -> str:
    market, consumer = build_market()
    return settled_key(WorkloadSession(market, consumer, make_kind()).run())


#: The happy path fires a boundary after each phase except the last
#: (audit -> TERMINAL_COMPLETE is not a re-entry point).
HAPPY_BOUNDARIES = len(LIFECYCLE_PHASES) - 1


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("boundary", range(HAPPY_BOUNDARIES))
    def test_pause_serialize_restore_resume_every_boundary(
            self, boundary, baseline_key):
        market, consumer = build_market()
        session = WorkloadSession(market, consumer, make_kind())
        driver = paused_at(session, boundary)

        blob = canonical_json_bytes(session.record())
        # Byte-stable, and the digest is over exactly these bytes.
        assert canonical_json_bytes(session.record()) == blob
        assert session.digest() == sha256(blob).hexdigest()
        assert session.record()["format"] == CHECKPOINT_FORMAT

        session_id = session.session_id
        finish(driver)
        assert session.session_id == session_id
        assert settled_key(session) == baseline_key

    def test_created_state_checkpoint_runs_from_scratch(self, baseline_key):
        market, consumer = build_market()
        session = WorkloadSession(market, consumer, make_kind())
        record = session.record()
        assert (record["state"], record["next_phase"]) == \
            ("created", "deploy")
        assert settled_key(session.run()) == baseline_key

    def test_digest_is_process_portable(self):
        # Twin markets paused at the same boundary produce the same digest
        # even though their trails carry different wall-clock readings: the
        # digest covers progress, not timing.
        digests = []
        for _ in range(2):
            market, consumer = build_market()
            session = WorkloadSession(market, consumer, make_kind())
            paused_at(session, 3)
            digests.append(session.digest())
        assert digests[0] == digests[1]

    def test_to_bytes_carries_no_trail(self):
        market, consumer = build_market()
        session = WorkloadSession(market, consumer, make_kind())
        paused_at(session, 4)
        assert session.trail
        record = session.record()
        assert "trail" not in record
        blob = canonical_json_bytes(record)
        assert b"wall_time" not in blob and b"phase.started" not in blob
        # Chain accounting is in the record as totals.
        assert record["gas_used"] == session.gas_used
        assert record["blocks_mined"] == session.blocks_mined


def _names(session) -> list[str]:
    return [event.name for event in session.trail]


class TestRunAgain:
    def test_two_consecutive_pauses(self, baseline_key):
        market, consumer = build_market()
        session = WorkloadSession(market, consumer, make_kind())
        driver = paused_at(session, 2)
        assert session.next_phase == "attest_and_submit"
        assert next(driver) == "start_execution"
        assert session.next_phase == "start_execution"
        finish(driver)
        assert settled_key(session) == baseline_key

    def test_one_started_and_one_completed_across_pauses(self):
        market, consumer = build_market()
        session = WorkloadSession(market, consumer, make_kind())
        driver = paused_at(session, 1)
        assert _names(session).count("session.started") == 1
        for _ in range(4):
            next(driver)
        assert session.next_phase == "aggregate"
        finish(driver)
        names = _names(session)
        assert names.count("session.started") == 1
        assert names.count("session.completed") == 1
        # Every phase ran exactly once across the pauses.
        assert names.count("phase.completed") == len(LIFECYCLE_PHASES)

    def test_paused_session_records_one_ok_root_span(self):
        # A pause is a session left at a boundary, not a failure: the
        # continued run closes the one root span it opened, status ok.
        market, consumer = build_market()
        session = WorkloadSession(market, consumer, make_kind())
        finish(paused_at(session, 3))
        roots = [event.data for event in session.trail
                 if event.name == "span.end"
                 and event.data["name"] == "lifecycle.session"]
        assert [root["status"] for root in roots] == ["ok"]
        assert session.outcome == "settled"

    def test_running_session_refuses_a_second_run(self):
        market, consumer = build_market()
        session = WorkloadSession(market, consumer, make_kind())
        driver = paused_at(session, 2)
        self._assert_refuses(market, session)
        finish(driver)
        assert session.outcome == "settled"

    def test_complete_session_refuses_to_run(self):
        market, consumer = build_market()
        session = WorkloadSession(market, consumer, make_kind())
        session.run()
        assert session.state == TERMINAL_COMPLETE
        self._assert_refuses(market, session)

    def test_failed_session_refuses_to_run(self):
        market, consumer = build_market()
        session = WorkloadSession(
            market, consumer, make_kind(), injector=FaultInjector(
                FaultPlan.single(FaultKind.CRASH_EXECUTE, target="e1")))
        assert session.run() is session  # recover=False: terminal
        assert isinstance(session.failure, LifecycleError)
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
    def test_failed_record_names_where_it_died(self):
        # A failed session keeps the phase that failed as ``next_phase``:
        # its record says where the run died, in the checkpoint format.
        market, consumer = build_market()
        session = WorkloadSession(
            market, consumer, make_kind(), injector=FaultInjector(
                FaultPlan.single(FaultKind.CRASH_EXECUTE, target="e1"))).run()
        record = session.record()
        assert record["format"] == CHECKPOINT_FORMAT
        assert record["state"] == TERMINAL_FAILED
        assert record["next_phase"] == "execute"
        assert isinstance(session.failure, InjectedFaultError)
        assert session.failure.point == "execute.executor"

    def test_snapshot_bookkeeping_sets_are_sorted_lists(self):
        market, consumer = build_market()
        session = WorkloadSession(market, consumer, make_kind())
        paused_at(session, 5)
        record = session.record()
        for field in ("registered", "submitted", "certified", "executed",
                      "voted", "dropped_providers"):
            assert record[field] == sorted(record[field])


class TestRecordInAnyState:
    def test_terminal_session_has_a_record(self):
        market, consumer = build_market()
        session = WorkloadSession(market, consumer, make_kind())
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
        session = WorkloadSession(market, consumer, make_kind(),
                                  injector=injector)
        try:
            paused_at(session, 2)
        except StopIteration:
            pytest.skip("fault terminated the session before boundary 2")
        assert session.record()["injector"] == injector.state_dict()
        # An unarmed session's record has no injector key at all (absent,
        # not null — the bytes every journaled digest was taken over).
        market, consumer = build_market()
        bare = WorkloadSession(market, consumer, make_kind()).record()
        assert "injector" not in bare


class TestSessionPausedSemantics:
    def test_pause_does_not_trigger_recovery_or_settlement(self):
        market, consumer = build_market()
        session = WorkloadSession(market, consumer, make_kind())
        paused_at(session, 2)
        assert session.ctx.recovery_log == []
        assert session.ctx.payouts == {}
        assert session.state not in ("complete", "failed")
