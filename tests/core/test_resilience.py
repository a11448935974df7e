"""Fault injection and recovery: determinism, re-match, degradation, refunds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    RECOVERY_TRANSITIONS,
    SCENARIOS,
    TRANSITIONS,
    FaultKind,
    FaultPlan,
    Marketplace,
    MLTrainingKind,
    ModelSpec,
    TrainingSpec,
    WorkloadSpec,
    run_with_faults,
)
from repro.core import resilience
from repro.core.actors import ProviderActor
from repro.core.lifecycle import (
    LIFECYCLE_PHASES,
    PHASE_EXECUTE,
    PHASE_MATCH,
    PHASE_REGISTER,
    PHASE_SUBMIT,
    TERMINAL_FAILED,
    TERMINAL_STATES,
)
from repro.core.resilience import Fault, FaultInjector
from repro.crypto.ecdsa import PrivateKey, shared_secret
from repro.crypto.symmetric import decrypt
from repro.errors import (
    DecryptionError,
    EnclaveViolationError,
    MarketplaceError,
    SessionPaused,
)
from repro.governance.audit import trail_covers_chain
from repro.ml.datasets import make_iot_activity, split_dirichlet, train_test_split
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation
from repro.tee.attestation import AttestationService
from repro.tee.enclave import TEEPlatform

N_PROVIDERS = 3
N_EXECUTORS = 3
EXECUTOR_NAMES = tuple(f"e{i}" for i in range(N_EXECUTORS))
PROVIDER_NAMES = tuple(f"u{i}" for i in range(N_PROVIDERS))


def build_market(seed: int = 42, n_providers: int = N_PROVIDERS):
    """A fresh, fully deterministic marketplace for one injected run."""
    rng = np.random.default_rng(seed)
    data = make_iot_activity(600, rng)
    train, validation = train_test_split(data, 0.25, rng)
    parts = split_dirichlet(train, n_providers, 1.0, rng, min_samples=15)
    market = Marketplace(seed=seed)
    for index, part in enumerate(parts):
        market.add_provider(f"u{index}", part,
                            SemanticAnnotation("heart_rate", {}))
    consumer = market.add_consumer("c", validation=validation)
    for name in EXECUTOR_NAMES:
        market.add_executor(name)
    return market, consumer


def spec(workload_id: str, **overrides) -> WorkloadSpec:
    defaults = dict(
        workload_id=workload_id,
        requirement=ConceptRequirement("physiological"),
        model=ModelSpec(family="softmax", num_features=6, num_classes=5),
        training=TrainingSpec(steps=40, learning_rate=0.3),
        reward_pool=600_000,
        min_providers=2,
        min_samples=50,
        required_confirmations=2,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


def address_of(market: Marketplace, name: str) -> str:
    for actor in market.executors + market.providers:
        if actor.name == name:
            return actor.address
    raise AssertionError(f"no actor named {name}")


def total_supply(market: Marketplace) -> int:
    return sum(market.chain.state.balances.values())


class TestRecoveryTransitions:
    def test_every_phase_has_a_self_edge(self):
        for phase in LIFECYCLE_PHASES:
            assert phase.name in RECOVERY_TRANSITIONS[phase.name]
            assert phase.name in TRANSITIONS[phase.name]

    def test_rematch_edges_exist(self):
        # A crash before start_execution can send the session back to
        # re-register survivors; mid-submit it may also re-enter matching.
        assert PHASE_REGISTER in TRANSITIONS[PHASE_SUBMIT]
        assert PHASE_MATCH in TRANSITIONS[PHASE_SUBMIT]
        assert PHASE_REGISTER in TRANSITIONS[PHASE_EXECUTE]

    def test_terminal_states_gain_no_edges(self):
        for terminal in TERMINAL_STATES:
            assert TRANSITIONS[terminal] == ()
            assert terminal not in RECOVERY_TRANSITIONS


class TestFaultPlan:
    def test_single_plan_describes_itself(self):
        plan = FaultPlan.single(FaultKind.CRASH_EXECUTE, target="e1")
        assert plan.describe() == ["crash_execute @ execute.executor "
                                   "on e1 (x1)"]

    def test_sample_is_deterministic(self):
        a = FaultPlan.sample(0.5, EXECUTOR_NAMES, PROVIDER_NAMES, seed=7)
        b = FaultPlan.sample(0.5, EXECUTOR_NAMES, PROVIDER_NAMES, seed=7)
        assert a == b

    def test_sample_rate_extremes(self):
        none = FaultPlan.sample(0.0, EXECUTOR_NAMES, PROVIDER_NAMES, seed=7)
        assert none.faults == ()
        all_of_them = FaultPlan.sample(1.0, EXECUTOR_NAMES, PROVIDER_NAMES,
                                       seed=7)
        # Every executor, every provider, plus the chain rejection.
        assert len(all_of_them.faults) == N_EXECUTORS + N_PROVIDERS + 1

    def test_scenarios_build_plans(self):
        for name, scenario in SCENARIOS.items():
            plan = scenario.plan(EXECUTOR_NAMES, PROVIDER_NAMES)
            assert len(plan.faults) == 1, name
            assert plan.faults[0].kind is scenario.kind


class TestCrashExecuteAcceptance:
    """The issue's acceptance scenario: 1-of-3 executors dies mid-execute."""

    PLAN = FaultPlan.single(FaultKind.CRASH_EXECUTE, target="e1")

    def run_once(self, *, recover: bool):
        market, consumer = build_market()
        result = run_with_faults(market, consumer, spec("wl-crash-exec"),
                                 self.PLAN, recover=recover)
        return market, result

    def test_recovers_degraded_and_settles(self):
        market, result = self.run_once(recover=True)
        assert result.outcome == "settled_degraded"
        assert result.completed and result.degraded
        assert result.contract_state == "complete"
        assert [r["action"] for r in result.recoveries] == ["degrade"]
        assert result.blacklisted == [address_of(market, "e1")]
        assert result.report.degraded
        assert sum(result.payouts.values()) == 600_000

    def test_crashed_executor_is_never_paid(self):
        market, result = self.run_once(recover=True)
        dead = address_of(market, "e1")
        assert result.payouts.get(dead, 0) == 0
        # The surviving quorum did get the infra share.
        for name in ("e0", "e2"):
            assert result.payouts.get(address_of(market, name), 0) > 0

    def test_identical_across_two_runs(self):
        _, first = self.run_once(recover=True)
        _, second = self.run_once(recover=True)
        assert first.report.result_hash == second.report.result_hash
        assert first.payouts == second.payouts
        assert first.gas_used == second.gas_used
        assert first.injected == second.injected
        assert first.recoveries == second.recoveries

    def test_without_recovery_the_session_fails(self):
        market, result = self.run_once(recover=False)
        assert result.outcome == "failed"
        assert result.session_state == TERMINAL_FAILED
        assert "InjectedFaultError" in result.error
        # The failure path still releases the escrow (satellite fix).
        assert result.refunded == 600_000
        assert result.contract_state == "cancelled"

    def test_recovered_trail_still_covers_chain(self):
        market, result = self.run_once(recover=True)
        trail = market.event_log.for_session(result.session_id)
        assert trail_covers_chain(market.chain, result.workload_address,
                                  trail) == []
        assert result.report.audit.clean, result.report.audit.violations


class TestPreStartCrashRecovery:
    @pytest.mark.parametrize("kind,point", [
        (FaultKind.CRASH_REGISTER, "register.executor"),
        (FaultKind.CRASH_SUBMIT, "submit.executor"),
    ])
    def test_crash_before_start_rematches(self, kind, point):
        market, consumer = build_market()
        plan = FaultPlan.single(kind, target="e1")
        result = run_with_faults(market, consumer,
                                 spec(f"wl-{kind.value}"), plan)
        assert result.completed
        assert [r["action"] for r in result.recoveries] == ["rematch"]
        assert result.recoveries[0]["target"] == PHASE_REGISTER
        assert result.blacklisted == [address_of(market, "e1")]
        assert result.injected[0]["point"] == point
        # Re-matching keeps the full quorum: not a degraded run.
        assert not result.degraded
        assert result.payouts.get(address_of(market, "e1"), 0) == 0
        assert sum(result.payouts.values()) == 600_000

    def test_rematch_blocked_when_quorum_impossible(self):
        # With required_confirmations == executors, losing one executor
        # leaves no legal re-match: the session must fail (and refund).
        market, consumer = build_market()
        plan = FaultPlan.single(FaultKind.CRASH_REGISTER, target="e1")
        result = run_with_faults(
            market, consumer,
            spec("wl-no-quorum", required_confirmations=N_EXECUTORS), plan,
        )
        assert result.outcome == "failed"
        assert result.recoveries == []
        assert result.refunded == 600_000


class TestTransientRetry:
    def test_dropped_submission_retries_on_sim_clock(self):
        market, consumer = build_market()
        before = market.clock
        plan = FaultPlan.single(FaultKind.DROP_SUBMISSION, target="u0")
        result = run_with_faults(market, consumer, spec("wl-drop"), plan)
        assert result.outcome == "settled"
        assert [r["action"] for r in result.recoveries] == ["retry"]
        assert result.recoveries[0]["delay_s"] == 1.0
        assert market.clock >= before + 1.0
        assert not result.blacklisted and not result.dropped_providers

    def test_backoff_is_capped_exponential(self):
        assert [resilience.retry_delay(a) for a in range(7)] == \
            [1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0]

    def test_repeated_churn_is_ridden_out(self):
        market, consumer = build_market()
        plan = FaultPlan.single(FaultKind.PROVIDER_CHURN, target="u0",
                                times=3)
        result = run_with_faults(market, consumer, spec("wl-churn"), plan)
        assert result.outcome == "settled"
        assert [r["action"] for r in result.recoveries] == ["retry"] * 3
        delays = [r["delay_s"] for r in result.recoveries]
        assert delays == [1.0, 2.0, 4.0]

    def test_chain_rejection_retries_in_place(self):
        market, consumer = build_market()
        plan = FaultPlan.single(FaultKind.CHAIN_REJECT, times=2,
                                point="start.chain_tx")
        result = run_with_faults(market, consumer, spec("wl-flaky"), plan)
        assert result.outcome == "settled"
        assert [r["action"] for r in result.recoveries] == ["retry", "retry"]
        assert all(r["phase"] == "start_execution"
                   for r in result.recoveries)

    def test_exhausted_retries_drop_the_provider(self):
        market, consumer = build_market()
        plan = FaultPlan.single(FaultKind.PROVIDER_CHURN, target="u0",
                                times=1_000)
        result = run_with_faults(market, consumer, spec("wl-drop-prov"), plan)
        assert result.outcome == "settled_degraded"
        actions = [r["action"] for r in result.recoveries]
        assert actions[:-1] == ["retry"] * resilience.MAX_ATTEMPTS
        assert actions[-1] == "drop_provider"
        assert result.dropped_providers == [address_of(market, "u0")]
        # Only contributors are paid; the pool is still fully spent.
        assert result.payouts.get(address_of(market, "u0"), 0) == 0
        assert sum(result.payouts.values()) == 600_000

    def test_drop_blocked_below_min_providers(self):
        # min_providers == provider count: dropping anyone breaks the
        # match, so recovery gives up and the session fails.
        market, consumer = build_market()
        plan = FaultPlan.single(FaultKind.PROVIDER_CHURN, target="u0",
                                times=1_000)
        result = run_with_faults(
            market, consumer,
            spec("wl-min-prov", min_providers=N_PROVIDERS), plan,
        )
        assert result.outcome == "failed"
        assert [r["action"] for r in result.recoveries] == \
            ["retry"] * resilience.MAX_ATTEMPTS
        assert result.refunded == 600_000


class _CrashAfterDelivery(FaultInjector):
    """Holds executor faults back until that executor already holds data.

    A plan's crash otherwise fires the first time its executor comes up, when
    no provider has sent it anything and nobody has to resubmit.
    """

    def fire(self, session, point, executor=None, provider=None):
        if executor is None or session.ctx.assignments.get(executor.address):
            super().fire(session, point, executor=executor, provider=provider)


class TestRematchReencrypts:
    """A re-matched provider reuses its encoded rows, not its envelope."""

    @pytest.mark.parametrize("plan", [
        FaultPlan.single(FaultKind.CRASH_SUBMIT, target="e0"),
        FaultPlan(faults=(Fault(FaultKind.PROVIDER_CHURN, target="u0"),
                          Fault(FaultKind.CRASH_SUBMIT, target="e0"))),
    ], ids=["crash_submit", "provider_churn+crash_submit"])
    def test_second_envelope_is_for_the_new_enclave(self, monkeypatch, plan):
        monkeypatch.setattr("repro.core.resilience.FaultInjector",
                            _CrashAfterDelivery)
        submissions = []
        prepare = ProviderActor.prepare_submission_for

        def recording(provider, workload_id, executor_address, enclave_key,
                      issued_at, rng):
            envelope, certificate = prepare(
                provider, workload_id, executor_address, enclave_key,
                issued_at=issued_at, rng=rng)
            submissions.append((provider, enclave_key, envelope, certificate))
            return envelope, certificate

        monkeypatch.setattr(ProviderActor, "prepare_submission_for",
                            recording)
        market, consumer = build_market(n_providers=4)
        result = run_with_faults(market, consumer, spec("wl-rekey"), plan)
        assert result.outcome == "settled"
        assert "crash_submit" in [r["kind"] for r in result.injected]

        u0 = [entry for entry in submissions if entry[0].name == "u0"]
        assert len(u0) == 2 and len(submissions) == 5
        (provider, old_key, old_envelope, old_certificate), \
            (_, new_key, new_envelope, new_certificate) = u0
        assert new_key != old_key
        assert new_certificate.executor != old_certificate.executor
        assert new_certificate.data_root == old_certificate.data_root
        assert new_envelope.to_bytes() != old_envelope.to_bytes()
        payload = provider.partition_payload()
        assert decrypt(shared_secret(provider.wallet.key, new_key),
                       new_envelope) == payload
        with pytest.raises(DecryptionError):
            decrypt(shared_secret(provider.wallet.key, old_key), new_envelope)


class TestQuotePerEnclave:
    """Providers routed to one enclave are shown one signed quote."""

    @staticmethod
    def _record_quotes(monkeypatch):
        shown = []
        produce = AttestationService.produce_quote

        def recording(enclave):
            quote = produce(enclave)
            shown.append((enclave, quote))
            return quote

        monkeypatch.setattr(AttestationService, "produce_quote",
                            staticmethod(recording))
        return shown

    def test_one_quote_per_enclave_per_session(self, monkeypatch):
        shown = self._record_quotes(monkeypatch)
        market, consumer = build_market(n_providers=6)
        platform_keys = {executor.platform.attestation_key
                         for executor in market.executors}
        signed = []
        sign = PrivateKey.sign

        def recording(key, message):
            signed.append(key)
            return sign(key, message)

        monkeypatch.setattr(PrivateKey, "sign", recording)
        report = market.run_workload(consumer, spec("wl-quotes"))
        assert report.audit.clean
        enclaves = {id(enclave) for enclave, _ in shown}
        assert len(shown) == 6 and 1 < len(enclaves) < 6
        assert len({id(quote) for _, quote in shown}) == len(enclaves)
        assert len([key for key in signed if key in platform_keys]) \
            == len(enclaves)

    def test_rematch_onto_a_new_enclave_gets_a_new_quote(self, monkeypatch):
        monkeypatch.setattr("repro.core.resilience.FaultInjector",
                            _CrashAfterDelivery)
        shown = self._record_quotes(monkeypatch)
        market, consumer = build_market(n_providers=4)
        plan = FaultPlan.single(FaultKind.CRASH_SUBMIT, target="e0")
        result = run_with_faults(market, consumer, spec("wl-requote"), plan)
        assert result.outcome == "settled"
        # Every enclave is terminated once the session settles, so the
        # crashed one is told apart by the host it ran on.
        dead_host = market.executors[0].platform
        assert all(enclave.terminated and enclave.quote is None
                   for enclave, _ in shown)
        old = {quote.report_data for enclave, quote in shown
               if enclave.platform is dead_host}
        new = {quote.report_data for enclave, quote in shown
               if enclave.platform is not dead_host}
        assert old and new and old.isdisjoint(new)


class TestEnclavesReleased:
    """A finished session gives its enclaves back, plaintext included."""

    @pytest.fixture
    def launched(self, monkeypatch):
        enclaves = []
        launch = TEEPlatform.launch

        def recording(platform, code):
            enclaves.append(launch(platform, code))
            return enclaves[-1]

        monkeypatch.setattr(TEEPlatform, "launch", recording)
        return enclaves

    @staticmethod
    def _assert_released(market, launched):
        assert launched
        assert all(executor.enclaves == {} for executor in market.executors)
        for enclave in launched:
            assert enclave.terminated and not enclave._private_inputs
            with pytest.raises(EnclaveViolationError):
                enclave.extract_output()

    def test_after_run_workload(self, launched):
        market, consumer = build_market()
        assert market.run_workload(consumer, spec("wl-release")).audit.clean
        self._assert_released(market, launched)

    def test_after_a_failed_run(self, launched):
        market, consumer = build_market()
        plan = FaultPlan.single(FaultKind.CRASH_EXECUTE, target="e1")
        result = run_with_faults(market, consumer, spec("wl-release-f"),
                                 plan, recover=False)
        assert result.outcome == "failed"
        self._assert_released(market, launched)

    def test_after_a_degraded_run(self, launched):
        market, consumer = build_market()
        plan = FaultPlan.single(FaultKind.CRASH_EXECUTE, target="e1")
        result = run_with_faults(market, consumer, spec("wl-release-d"), plan)
        assert result.outcome == "settled_degraded"
        self._assert_released(market, launched)

    def test_a_paused_session_keeps_its_enclaves(self, launched):
        market, consumer = build_market()

        def pause_before_aggregate(session, next_phase):
            if next_phase == "aggregate":
                raise SessionPaused("pause")

        session = market.session_for(
            consumer, MLTrainingKind(spec("wl-release-p")),
            on_phase_boundary=pause_before_aggregate)
        with pytest.raises(SessionPaused):
            session.run()
        held = [executor.enclaves["wl-release-p"]
                for executor in market.executors]
        assert held == launched
        assert not any(enclave.terminated for enclave in held)
        assert all(enclave.extract_output() for enclave in held)
        session.run()
        self._assert_released(market, launched)


class TestEscrowConservation:
    def test_failed_session_refunds_and_conserves_balance(self):
        market, consumer = build_market()
        supply_before = total_supply(market)
        consumer_before = consumer.wallet.balance
        plan = FaultPlan.single(FaultKind.CRASH_EXECUTE, target="e1")
        result = run_with_faults(market, consumer, spec("wl-refund"), plan,
                                 recover=False)
        assert result.outcome == "failed"
        # Gas fees move to validators but never leave the system.
        assert total_supply(market) == supply_before
        # The consumer got the whole escrow back; only gas was spent.
        gas_fees = consumer_before - consumer.wallet.balance
        assert result.refunded == 600_000
        assert 0 < gas_fees < 600_000
        assert market.chain.state.balance_of(result.workload_address) == 0
        trail = market.event_log.for_session(result.session_id)
        names = [event.name for event in trail]
        assert "session.refunded" in names
        assert "session.failed" in names

    def test_recovered_session_conserves_balance_too(self):
        market, consumer = build_market()
        supply_before = total_supply(market)
        plan = FaultPlan.single(FaultKind.CRASH_EXECUTE, target="e1")
        result = run_with_faults(market, consumer, spec("wl-conserve"), plan)
        assert result.completed
        assert total_supply(market) == supply_before
        assert market.chain.state.balance_of(result.workload_address) == 0


class TestRecoveryPolicyLimits:
    def test_max_recoveries_caps_the_loop(self, monkeypatch):
        # The backstop is a constant; a retry budget it cannot reach shows
        # it is the cap, not the budget, that stops the loop.
        monkeypatch.setattr(resilience, "MAX_ATTEMPTS", 1_000)
        monkeypatch.setattr(resilience, "MAX_RECOVERIES", 3)
        market, consumer = build_market()
        plan = FaultPlan.single(FaultKind.PROVIDER_CHURN, target="u0",
                                times=1_000)
        result = run_with_faults(market, consumer, spec("wl-cap"), plan)
        assert result.outcome == "failed"
        assert len(result.recoveries) == 3

    def test_disabled_degrade_fails_mid_execute_crash(self):
        # Degrading needs a surviving quorum.  When every executor must
        # confirm, losing one leaves none: no directive, fail and refund.
        market, consumer = build_market()
        plan = FaultPlan.single(FaultKind.CRASH_EXECUTE, target="e1")
        result = run_with_faults(
            market, consumer,
            spec("wl-nodeg", required_confirmations=len(EXECUTOR_NAMES)),
            plan)
        assert result.outcome == "failed"
        assert result.recoveries == []
        assert result.refunded == 600_000


class TestGuards:
    def test_advance_clock_rejects_bad_deltas(self):
        market, _ = build_market()
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(MarketplaceError):
                market.advance_clock(bad)

    def test_advance_clock_moves_time(self):
        market, _ = build_market()
        before = market.clock
        market.advance_clock(2.5)
        assert market.clock == before + 2.5
