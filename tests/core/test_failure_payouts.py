"""Failure-path payouts: who gets paid after crashes, drops and recovery."""

from __future__ import annotations

import pytest

from repro.core import DEFAULT_FUNDING, FaultKind, FaultPlan, run_with_faults
from repro.governance.audit import trail_covers_chain

from tests.core.test_resilience import address_of, build_market, spec
from tests.core.trail_sink import TrailSink

REWARD_POOL = 600_000


@pytest.fixture(scope="module", params=[
    FaultKind.CRASH_REGISTER, FaultKind.CRASH_SUBMIT,
    FaultKind.CRASH_EXECUTE,
])
def crashed_run(request):
    """One recovered run per crash kind, shared across the assertions:
    ``(market, result, the session's events)``."""
    kind = request.param
    market, consumer = build_market()
    sink = market.events.attach(TrailSink())
    plan = FaultPlan.single(kind, target="e1")
    result = run_with_faults(market, consumer,
                             spec(f"wl-pay-{kind.value}"), plan)
    assert result.completed, result.error
    return market, result, sink.for_session(result.session_id)


class TestCrashedExecutorPayouts:
    def test_crashed_executor_receives_nothing(self, crashed_run):
        market, result, _ = crashed_run
        dead = address_of(market, "e1")
        assert dead in result.blacklisted
        assert result.payouts.get(dead, 0) == 0
        # Its wallet only ever *spent* gas: no reward ever landed there.
        assert market.chain.state.balance_of(dead) <= DEFAULT_FUNDING

    def test_surviving_executors_split_the_infra_pool(self, crashed_run):
        market, result, _ = crashed_run
        survivors = [address_of(market, name) for name in ("e0", "e2")]
        shares = [result.payouts.get(address, 0) for address in survivors]
        assert all(share > 0 for share in shares)
        # Equal split with largest-remainder rounding: off by at most 1.
        assert max(shares) - min(shares) <= 1

    def test_collect_payouts_conserves_the_escrow(self, crashed_run):
        market, result, _ = crashed_run
        assert sum(result.payouts.values()) == REWARD_POOL
        assert market.chain.state.balance_of(result.workload_address) == 0

    def test_trail_covers_chain_on_recovered_session(self, crashed_run):
        market, result, trail = crashed_run
        assert trail_covers_chain(market.chain, result.workload_address,
                                  trail) == []

    def test_audit_stays_clean_after_recovery(self, crashed_run):
        _, result, _ = crashed_run
        assert result.report.audit.clean, result.report.audit.violations


class TestDroppedProviderPayouts:
    @pytest.fixture(scope="class")
    def dropped_run(self):
        market, consumer = build_market()
        plan = FaultPlan.single(FaultKind.PROVIDER_CHURN, target="u0",
                                times=1_000)
        result = run_with_faults(market, consumer, spec("wl-pay-drop"), plan)
        assert result.completed, result.error
        return market, result

    def test_dropped_provider_is_not_paid(self, dropped_run):
        market, result = dropped_run
        dropped = address_of(market, "u0")
        assert result.dropped_providers == [dropped]
        assert result.payouts.get(dropped, 0) == 0

    def test_pool_reweights_over_remaining_contributors(self, dropped_run):
        market, result = dropped_run
        remaining = [address_of(market, name) for name in ("u1", "u2")]
        assert all(result.payouts.get(address, 0) > 0
                   for address in remaining)
        assert sum(result.payouts.values()) == REWARD_POOL

    def test_provider_reward_counters_match_payouts(self, dropped_run):
        market, result = dropped_run
        for provider in market.providers:
            assert provider.rewards_received == \
                result.payouts.get(provider.address, 0)


class TestFailedSessionPaysNobody:
    def test_no_recovery_means_no_rewards_at_all(self):
        market, consumer = build_market()
        plan = FaultPlan.single(FaultKind.CRASH_EXECUTE, target="e1")
        result = run_with_faults(market, consumer, spec("wl-pay-fail"),
                                 plan, recover=False)
        assert result.outcome == "failed"
        assert result.payouts == {}
        for provider in market.providers:
            assert provider.rewards_received == 0
        for executor in market.executors:
            # Pre-funded for gas, but no reward on top of it.
            assert market.chain.state.balance_of(executor.address) <= \
                DEFAULT_FUNDING
        # The whole pool went back to the consumer, not to participants.
        assert result.refunded == REWARD_POOL
