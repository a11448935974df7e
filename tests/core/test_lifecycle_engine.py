"""The lifecycle engine: transition table, phase objects, event trail."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.gas import DEFAULT_TX_GAS_LIMIT
from repro.core import (
    LIFECYCLE_PHASES,
    TRANSITIONS,
    ExecutorBehavior,
    FaultKind,
    FaultPlan,
    Marketplace,
    MLTrainingKind,
    ModelSpec,
    TrainingSpec,
    WorkloadSession,
    WorkloadSpec,
    phase_gas_totals,
    run_with_adversaries,
    run_with_faults,
)
from repro.core import lifecycle
from repro.core.aggregates import AggregateKind, AggregateSpec
from repro.core.events import JSONLSink, read_jsonl_events
from repro.core.lifecycle import (
    STATE_CREATED,
    TERMINAL_COMPLETE,
    TERMINAL_FAILED,
    TERMINAL_STATES,
    deploy,
)
from repro.errors import (
    DeployFailure,
    InjectedFaultError,
    LifecycleError,
    MarketplaceError,
    MatchFailure,
    MatchingError,
    RegistrationFailure,
    SettlementFailure,
    StartFailure,
    SubmissionFailure,
    TransitionError,
)
from repro.governance.audit import trail_covers_chain
from repro.ml.datasets import make_iot_activity, split_dirichlet, train_test_split
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation
from repro.tee.enclave import Enclave
from repro import telemetry
from tests.chain.test_mempool import _forge
from tests.telemetry.exposition_oracle import metric_named, series_total


@pytest.fixture(scope="module")
def market_setup():
    return build_market()


def build_market():
    rng = np.random.default_rng(50)
    data = make_iot_activity(500, rng)
    train, validation = train_test_split(data, 0.25, rng)
    parts = split_dirichlet(train, 3, 1.0, rng, min_samples=10)
    market = Marketplace(seed=11)
    for index, part in enumerate(parts):
        market.add_provider(f"u{index}", part,
                            SemanticAnnotation("heart_rate", {}))
    consumer = market.add_consumer("c", validation=validation)
    market.add_executor("e0")
    market.add_executor("e1")
    return market, consumer


def small_spec(workload_id: str, **overrides) -> WorkloadSpec:
    defaults = dict(
        workload_id=workload_id,
        requirement=ConceptRequirement("physiological"),
        model=ModelSpec(family="softmax", num_features=6, num_classes=5),
        training=TrainingSpec(steps=30, learning_rate=0.3),
        reward_pool=100_000,
        min_providers=2,
        min_samples=50,
        required_confirmations=1,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestTransitionTable:
    def test_every_phase_is_a_state(self):
        for phase in LIFECYCLE_PHASES:
            assert phase.name in TRANSITIONS

    def test_terminal_states_have_no_outgoing_transitions(self):
        for terminal in TERMINAL_STATES:
            assert TRANSITIONS[terminal] == ()

    def test_no_state_reachable_from_terminal(self):
        # Closure: no transition anywhere targets a state already declared
        # terminal... and nothing ever leads back to "created".
        for state, targets in TRANSITIONS.items():
            assert STATE_CREATED not in targets
            for target in targets:
                assert target in TRANSITIONS

    def test_every_nonterminal_state_can_fail(self):
        for state, targets in TRANSITIONS.items():
            if state in TERMINAL_STATES:
                continue
            assert TERMINAL_FAILED in targets

    def test_happy_path_follows_phase_order(self):
        state = STATE_CREATED
        for phase in LIFECYCLE_PHASES:
            assert phase.name in TRANSITIONS[state]
            state = phase.name
        assert TERMINAL_COMPLETE in TRANSITIONS[state]

    def test_exactly_the_sending_phases_are_generators(self):
        # A phase that sends waits for its block inline, so its step is a
        # generator function; an off-chain phase is a plain function.
        sending = {"deploy", "register_executors", "attest_and_submit",
                   "start_execution", "settle"}
        assert {phase.name for phase in LIFECYCLE_PHASES
                if inspect.isgeneratorfunction(phase.step)} == sending


class TestSessionStateMachine:
    def test_illegal_transition_raises(self, market_setup):
        market, consumer = market_setup
        session = WorkloadSession(
            market, consumer, MLTrainingKind(small_spec("wl-illegal"))
        )
        with pytest.raises(TransitionError):
            session.advance("execute")
        assert session.record()["state"] == STATE_CREATED
        assert session.state == STATE_CREATED

    def test_terminal_state_is_final(self, market_setup):
        market, consumer = market_setup
        session = WorkloadSession(
            market, consumer, MLTrainingKind(small_spec("wl-final"))
        )
        session.state = TERMINAL_COMPLETE
        with pytest.raises(TransitionError):
            session.advance(TERMINAL_FAILED)

    def test_deploy_phase_rejects_empty_executor_set(self, market_setup):
        market, consumer = market_setup
        session = WorkloadSession(
            market, consumer, MLTrainingKind(small_spec("wl-noexec")))
        session.ctx.executors = []
        with pytest.raises(DeployFailure, match="no executors available"):
            next(deploy(session))
        assert session.record()["session_id"] == session.session_id

    def test_failure_classes_stay_catchable_as_before(self):
        # The refactor must not break callers catching the old exception
        # types: every phase failure is a MarketplaceError, and match
        # failures are still MatchingErrors.
        assert issubclass(DeployFailure, MarketplaceError)
        assert issubclass(MatchFailure, MatchingError)
        assert issubclass(MatchFailure, LifecycleError)
        assert issubclass(SettlementFailure, MarketplaceError)

    def test_failed_session_records_failure_events(self, market_setup):
        market, consumer = market_setup
        spec = small_spec("wl-fail", requirement=ConceptRequirement("motion"))
        session = WorkloadSession(market, consumer,
                                  MLTrainingKind(spec)).run()
        assert session.state == TERMINAL_FAILED
        assert isinstance(session.failure, MatchFailure)
        assert session.record()["next_phase"] == "match"
        names = [event.name for event in session.trail]
        assert "phase.failed" in names
        assert "session.failed" in names


class TestEventTrail:
    @pytest.fixture(scope="class")
    def run(self, market_setup):
        market, consumer = market_setup
        session = WorkloadSession(market, consumer,
                                  MLTrainingKind(small_spec("wl-trail")))
        return market, session.run(), session.trail

    def test_every_phase_appears_in_trail(self, run):
        market, session, trail = run
        for phase in LIFECYCLE_PHASES:
            phased = [e for e in trail if e.phase == phase.name]
            assert phased, f"no events for phase {phase.name}"
            names = [e.name for e in phased]
            assert "phase.started" in names
            assert "phase.completed" in names

    def test_gas_derived_from_event_deltas(self, run):
        market, session, trail = run
        assert session.gas_used == sum(e.gas_delta for e in trail)
        assert session.gas_used == sum(phase_gas_totals(trail).values())
        assert session.gas_used > 0
        # On-chain phases each carry at least one block's gas delta.
        for phase in ("deploy", "register_executors", "attest_and_submit",
                      "start_execution", "settle"):
            assert phase_gas_totals(trail).get(phase, 0) > 0, phase

    def test_blocks_counted_from_events(self, run):
        market, session, trail = run
        mined = [e for e in trail if e.name == "chain.block_mined"]
        assert len(mined) == session.blocks_mined
        assert all(e.block_height >= 0 for e in mined)

    def test_trail_covers_onchain_history(self, run):
        market, session, trail = run
        assert trail_covers_chain(market.chain, session.ctx.workload_address,
                                  trail) == []
        assert session.ctx.audit.clean, session.ctx.audit.violations

    def test_cumulative_gas_counter_matches_blocks(self, run):
        market, *_ = run
        assert market.chain.total_gas_used == sum(
            block.header.gas_used for block in market.chain.blocks
        )

    def test_report_lists_active_executors(self, run):
        market, session, trail = run
        ctx = session.ctx
        assert ({e.address for e in ctx.active_executors}
                <= {e.address for e in ctx.executors})
        assert ctx.active_executors

    def test_jsonl_sink_round_trips(self, run, tmp_path):
        market, _, _ = run
        path = str(tmp_path / "trace.jsonl")
        consumer = market.consumers[0]
        session = WorkloadSession(market, consumer,
                                  MLTrainingKind(small_spec("wl-jsonl")))
        with JSONLSink(path) as sink:
            market.events.attach(sink)
            try:
                session.run()
            finally:
                market.events.detach(sink)
        replayed = read_jsonl_events(path)
        in_memory = session.trail
        assert [e.to_dict() for e in replayed
                if e.session_id == session.session_id] == \
               [e.to_dict() for e in in_memory]

    def test_metrics_sink_counts(self, run):
        """A session's chain work lands in the process registry, the one
        metrics store (nothing replays events into a second one)."""
        market, _, _ = run
        names = ("pds2_chain_gas_total", "pds2_chain_blocks_mined_total")

        def totals():
            return [series_total(metric_named(telemetry.REGISTRY, name))
                    for name in names]

        before = totals()
        session = market.run_workload(market.consumers[0],
                                      small_spec("wl-metrics"))
        after = totals()
        assert [a - b for a, b in zip(after, before)] == [
            session.gas_used, session.blocks_mined]


class TestSilentQuorum:
    """Nobody votes; the engine still mines the settle block and checks
    the contract's state."""

    SILENT = [ExecutorBehavior.SILENT, ExecutorBehavior.SILENT]

    def test_silent_settle_refunds_the_escrow(self, market_setup):
        market, consumer = market_setup
        session = run_with_adversaries(
            market, consumer, small_spec("wl-novotes"), self.SILENT)
        # The settle block holds no vote; the abort is mined in a sixth.
        assert session.blocks_mined == 6
        assert session.ctx.final_state == "executing"
        assert session.read_state() == "cancelled"
        assert session.outcome == "failed"
        assert isinstance(session.failure, SettlementFailure)
        assert session.ctx.payouts == {}
        assert session.ctx.refunded == small_spec("wl-novotes").reward_pool
        assert market.chain.state.balance_of(
            session.ctx.workload_address) == 0
        names = [e.name for e in session.trail]
        assert "settle.incomplete" in names
        assert "session.refunded" in names

    def test_missing_quorum_raises_settlement_failure(self, market_setup):
        market, consumer = market_setup
        session = run_with_adversaries(
            market, consumer, small_spec("wl-strict"), self.SILENT)
        assert isinstance(session.failure, SettlementFailure)
        assert session.record()["final_state"] == "executing"


class TestDriversReturnTheSession:
    """All four drivers hand back the finished session, not a copy of it."""

    def test_every_driver_returns_a_complete_session(self, market_setup):
        market, consumer = market_setup
        sessions = [
            market.run_workload(consumer, small_spec("wl-driver-ml")),
            market.run_aggregate_workload(
                consumer, "wl-driver-agg", ConceptRequirement("physiological"),
                AggregateSpec(AggregateKind.MEAN, field_index=3),
                reward_pool=100_000, min_providers=1, min_samples=1,
                required_confirmations=1),
            run_with_faults(market, consumer, small_spec("wl-driver-faults"),
                            FaultPlan()),
            run_with_adversaries(
                market, consumer, small_spec("wl-driver-adv"),
                [ExecutorBehavior.HONEST] * len(market.executors)),
        ]
        for session in sessions:
            assert isinstance(session, WorkloadSession)
            assert session.state == TERMINAL_COMPLETE
            assert session.outcome == "settled"
            assert session.ctx.audit.clean

    @pytest.mark.parametrize("driver,failure", [
        ("run_workload", MatchFailure),
        ("run_aggregate_workload", MatchFailure),
        ("run_with_faults", InjectedFaultError),
        ("run_with_adversaries", SettlementFailure),
    ])
    def test_every_driver_returns_a_failed_session(self, market_setup,
                                                   driver, failure):
        """A failed run is returned, not raised: typed ``failure``, the
        escrow refunded, one ``outcome="failed"`` count."""
        market, consumer = market_setup
        unmatched = ConceptRequirement("motion")
        runs = {
            "run_workload": lambda: market.run_workload(
                consumer, small_spec("wl-fail-ml", requirement=unmatched)),
            "run_aggregate_workload": lambda: market.run_aggregate_workload(
                consumer, "wl-fail-agg", unmatched,
                AggregateSpec(AggregateKind.MEAN, field_index=3),
                reward_pool=100_000, min_providers=1, min_samples=1,
                required_confirmations=1),
            "run_with_faults": lambda: run_with_faults(
                market, consumer, small_spec("wl-fail-faults"),
                FaultPlan.single(FaultKind.CRASH_EXECUTE, target="e1"),
                recover=False),
            "run_with_adversaries": lambda: run_with_adversaries(
                market, consumer, small_spec("wl-fail-adv"),
                [ExecutorBehavior.SILENT] * len(market.executors)),
        }
        failed = metric_named(telemetry.REGISTRY,
                              "pds2_lifecycle_sessions_total")
        before = failed.labels(outcome="failed").value
        session = runs[driver]()
        assert isinstance(session, WorkloadSession)
        assert session.state == TERMINAL_FAILED
        assert session.outcome == "failed"
        assert type(session.failure) is failure
        assert session.ctx.workload_address  # deploy precedes every failure
        assert session.ctx.refunded == 100_000
        assert session.read_state() == "cancelled"
        assert failed.labels(outcome="failed").value == before + 1

    def test_run_workload_is_the_session_run(self):
        spec = small_spec("wl-driver-digest")
        market, consumer = build_market()
        twin, twin_consumer = build_market()
        assert market.run_workload(consumer, spec).digest() == \
            WorkloadSession(twin, twin_consumer,
                            MLTrainingKind(spec)).run().digest()


def tamper_calls(monkeypatch, method, change):
    """Route every ``Wallet.call`` of ``method`` through ``change(real,
    wallet, contract, args)``, which returns the transaction hash."""
    real = Wallet.call

    def call(wallet, contract, name, **args):
        if name == method:
            return change(real, wallet, contract, args)
        return real(wallet, contract, name, **args)

    monkeypatch.setattr(Wallet, "call", call)


def sent_twice(real, wallet, contract, args):
    real(wallet, contract, "submit_participation", **args)
    return real(wallet, contract, "submit_participation", **args)


def forged(real, wallet, contract, args):
    tx = wallet._build(contract, 0, {"method": "start_execution",
                                     "args": args}, DEFAULT_TX_GAS_LIMIT)
    return wallet.chain.submit(_forge(tx))


def run_failing(market, consumer, spec, failure):
    """Run ``spec`` to a ``failure``; returns the session and its error."""
    session = WorkloadSession(market, consumer, MLTrainingKind(spec)).run()
    assert session.state == TERMINAL_FAILED
    assert isinstance(session.failure, failure)
    return session, session.failure


class TestOneSeamMinesAndReadsReceipts:
    """Phases submit; ``Marketplace.seam`` reads the block back and a
    required transaction the chain refused fails the phase that sent it."""

    def test_unmet_preconditions_stop_before_any_enclave_runs(
            self, market_setup, monkeypatch):
        market, consumer = market_setup
        runs = []
        real_run = Enclave.run
        monkeypatch.setattr(
            Enclave, "run",
            lambda self, *a, **k: runs.append(1) or real_run(self, *a, **k))
        session, error = run_failing(
            market, consumer, small_spec("wl-gate", min_samples=10_000),
            StartFailure)
        assert "workload preconditions are not met" in str(error)
        assert session.record()["next_phase"] == "start_execution"
        assert runs == []
        names = [event.name for event in session.trail]
        assert "enclave.executed" not in names
        assert session.ctx.refunded == 100_000
        failed = [e for e in session.trail if e.name == "session.failed"]
        assert [e.data["phase"] for e in failed] == ["start_execution"]
        reverted = [e for e in session.trail if e.name == "chain.tx_reverted"]
        assert [(e.actor, e.data["method"]) for e in reverted] == [
            (consumer.address, "start_execution")]

    @pytest.mark.parametrize("method,change,failure,phase,reason", [
        ("register_executor",
         lambda real, w, c, args: real(w, c, "register_executor",
                                       claimed_measurement="00" * 32),
         RegistrationFailure, "register_executors",
         "executor claims a different code measurement"),
        ("submit_participation", sent_twice, SubmissionFailure,
         "attest_and_submit", "certificate already submitted"),
        ("submit_result",
         lambda real, w, c, args: real(w, c, "submit_result",
                                       **{**args, "provider_weights_bps": {}}),
         SettlementFailure, "settle", "weights must sum to 10000 bps"),
        ("start_execution", forged, StartFailure, "start_execution",
         "dropped at block entry: no receipt"),
    ], ids=["mismatching_measurement", "certificate_sent_twice",
            "weights_off_bps", "forged_signature"])
    def test_refused_transaction_fails_the_phase_that_sent_it(
            self, market_setup, monkeypatch, method, change, failure, phase,
            reason):
        market, consumer = market_setup
        tamper_calls(monkeypatch, method, change)
        session, error = run_failing(
            market, consumer, small_spec(f"wl-refused-{method}"), failure)
        assert type(error) is failure
        assert method in str(error) and reason in str(error)
        assert session.record()["next_phase"] == phase
        assert [e.data["phase"] for e in session.trail
                if e.name == "session.failed"] == [phase]
        assert session.ctx.refunded == 100_000
        assert session.read_state() == "cancelled"

    def test_reverted_abort_does_not_mask_the_original_error(
            self, market_setup, monkeypatch):
        market, consumer = market_setup
        stranger = market.executors[0].wallet
        tamper_calls(monkeypatch, "abort",
                     lambda real, w, c, args: real(stranger, c, "abort"))
        session, error = run_failing(
            market, consumer, small_spec("wl-noabort", min_samples=10_000),
            StartFailure)
        assert "workload preconditions are not met" in str(error)
        refund = [e for e in session.trail
                  if e.name.startswith("session.refund")]
        assert [e.name for e in refund] == ["session.refund_failed"]
        assert refund[0].data["error"] == "MarketplaceError"
        assert "only the consumer may abort" in refund[0].data["message"]
        assert session.ctx.refunded == 0

    def test_abort_reads_the_failed_phase_sends(self, market_setup,
                                                monkeypatch):
        # e0's registration is sent, then e1 crashes: the phase fails with
        # that send still pooled.  The abort's block mines it, and the
        # seam reads it without requiring it — its revert is reported and
        # its gas is the session's.
        market, consumer = market_setup
        sent = []

        def wrong_measurement(real, wallet, contract, args):
            sent.append(real(wallet, contract, "register_executor",
                             claimed_measurement="00" * 32))
            return sent[-1]

        tamper_calls(monkeypatch, "register_executor", wrong_measurement)
        height = market.chain.height
        session = run_with_faults(
            market, consumer, small_spec("wl-orphan"),
            FaultPlan.single(FaultKind.CRASH_REGISTER, target="e1"),
            recover=False)
        assert session.state == TERMINAL_FAILED
        assert session.ctx.refunded == 100_000
        reverted = [e.data for e in session.trail
                    if e.name == "chain.tx_reverted"]
        assert [r["method"] for r in reverted] == ["register_executor"]
        receipt = market.chain.receipt_for(sent[0])
        assert not receipt.status and receipt.gas_used > 0
        blocks = market.chain.blocks[height + 1:]
        assert sent[0] in {tx.tx_hash for tx in blocks[-1].transactions}
        assert session.gas_used == sum(b.header.gas_used for b in blocks)
        assert session.blocks_mined == len(blocks)

    @pytest.fixture
    def narrow_market(self, rng):
        """Blocks that hold two transactions: the third certificate of
        ``attest_and_submit`` is deferred into the ``start_execution`` block
        (as the 16th is on E25's ``ml_wide``)."""
        market = Marketplace(seed=29)
        for index, part in enumerate(
                split_dirichlet(make_iot_activity(300, rng), 3, 1.0, rng,
                                min_samples=10)):
            market.add_provider(f"u{index}", part,
                                SemanticAnnotation("heart_rate", {}))
        consumer = market.add_consumer("c")
        market.add_executor("e0")
        market.add_executor("e1")
        market.chain.block_gas_limit = 2 * DEFAULT_TX_GAS_LIMIT
        return market, consumer

    def test_deferred_certificate_rides_into_the_next_block(
            self, narrow_market):
        market, consumer = narrow_market
        session = WorkloadSession(market, consumer, MLTrainingKind(
            small_spec("wl-narrow", min_providers=3)))
        ctx = session.run().ctx
        sizes = [event.data["transactions"] for event in session.trail
                 if event.name == "chain.block_mined"]
        assert sizes == [1, 2, 2, 2, 1]
        assert ctx.audit.clean and len(ctx.participants) == 3

    def test_deferred_start_is_mined_before_any_enclave_runs(
            self, narrow_market, rng):
        """Five certificates in two-transaction blocks push
        ``start_execution`` out of its own block (as 32 providers do on
        E12): the seam mines on, and Execute sees an opened gate."""
        market, consumer = narrow_market
        for index, part in enumerate(
                split_dirichlet(make_iot_activity(200, rng), 2, 1.0, rng,
                                min_samples=10)):
            market.add_provider(f"v{index}", part,
                                SemanticAnnotation("heart_rate", {}))
        session = WorkloadSession(market, consumer, MLTrainingKind(
            small_spec("wl-late-start", min_providers=5)))
        ctx = session.run().ctx
        trail = session.trail
        assert [event.data["transactions"] for event in trail
                if event.name == "chain.block_mined"] == [1, 2, 2, 2, 2, 1]
        marks = [event.data.get("log_name", event.name) for event in trail]
        assert (marks.index("ExecutionStarted")
                < marks.index("enclave.executed"))
        assert ctx.audit.clean and len(ctx.participants) == 5

    def test_unmineable_start_does_not_open_the_gate(
            self, narrow_market, monkeypatch):
        market, consumer = narrow_market
        runs = []
        monkeypatch.setattr(Enclave, "run",
                            lambda self, *a, **k: runs.append(1))
        tamper_calls(
            monkeypatch, "start_execution",
            lambda real, w, c, args: real(
                w, c, "start_execution",
                gas_limit=market.chain.block_gas_limit + 1))
        session, error = run_failing(
            market, consumer, small_spec("wl-pooled-start"), StartFailure)
        assert "still pooled" in str(error)
        assert session.record()["next_phase"] == "start_execution"
        assert runs == []

    def test_fault_free_session_mines_five_blocks_through_the_seam(
            self, market_setup, monkeypatch):
        market, consumer = market_setup
        mined = []
        real_mine = Blockchain.mine_block
        monkeypatch.setattr(
            Blockchain, "mine_block",
            lambda chain, *a, **k: mined.append(1) or real_mine(chain, *a, **k))
        session = market.run_workload(consumer, small_spec("wl-five"))
        assert len(mined) == session.blocks_mined == 5
        source = inspect.getsource(lifecycle)
        assert "_mine(" not in source and "mine_block(" not in source
