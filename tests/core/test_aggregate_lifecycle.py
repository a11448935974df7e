"""Integration: aggregate workloads through the full on-chain lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Marketplace
from repro.core.aggregates import (
    AggregateKind,
    AggregateSpec,
    combine_aggregate_outputs,
)
from repro.errors import (
    DeployFailure,
    MarketplaceError,
    MatchingError,
    SettlementFailure,
    WorkloadSpecError,
)
from repro.ml.datasets import make_iot_activity, split_dirichlet
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation


@pytest.fixture(scope="module")
def market_setup():
    rng = np.random.default_rng(31)
    data = make_iot_activity(600, rng)
    parts = split_dirichlet(data, 4, 1.0, rng, min_samples=10)
    market = Marketplace(seed=9)
    for index, part in enumerate(parts):
        market.add_provider(f"u{index}", part,
                            SemanticAnnotation("heart_rate", {}))
    consumer = market.add_consumer("c")
    market.add_executor("e0")
    market.add_executor("e1")
    return market, consumer, data


#: What ``run_aggregate_workload`` used to default to.
ONE_OF_EACH = dict(min_providers=1, min_samples=1, required_confirmations=1)


class TestAggregateLifecycle:
    def test_exact_mean_through_chain(self, market_setup):
        market, consumer, data = market_setup
        spec = AggregateSpec(AggregateKind.MEAN, field_index=3)
        ctx = market.run_aggregate_workload(
            consumer, "agg-mean", ConceptRequirement("physiological"),
            spec, reward_pool=50_000, min_providers=3, min_samples=100,
            required_confirmations=2,
        ).ctx
        audit = ctx.audit
        assert ctx.extra["combined"] == pytest.approx(
            float(data.features[:, 3].mean()), abs=1e-9
        )
        assert sum(ctx.extra["sample_counts"].values()) == 600
        assert audit.clean, audit.violations
        assert audit.total_paid == 50_000

    def test_count_and_histogram(self, market_setup):
        market, consumer, data = market_setup
        count = market.run_aggregate_workload(
            consumer, "agg-count", ConceptRequirement("physiological"),
            AggregateSpec(AggregateKind.COUNT, field_index=0),
            reward_pool=10_000, **ONE_OF_EACH,
        ).ctx
        assert count.extra["combined"] == 600
        assert count.audit.clean
        hist = market.run_aggregate_workload(
            consumer, "agg-hist", ConceptRequirement("physiological"),
            AggregateSpec(AggregateKind.HISTOGRAM, field_index=0,
                          bin_edges=(-5.0, 0.0, 5.0)),
            reward_pool=10_000, **ONE_OF_EACH,
        ).ctx
        assert sum(hist.extra["combined"]) == 600
        assert hist.audit.clean

    def test_dp_aggregate_differs_from_exact(self, market_setup):
        market, consumer, data = market_setup
        spec = AggregateSpec(AggregateKind.MEAN, field_index=3,
                             dp_epsilon=2.0, sensitivity=0.01)
        ctx = market.run_aggregate_workload(
            consumer, "agg-dp", ConceptRequirement("physiological"),
            spec, reward_pool=10_000, **ONE_OF_EACH,
        ).ctx
        exact = float(data.features[:, 3].mean())
        assert ctx.extra["combined"] != pytest.approx(exact, abs=1e-12)
        assert abs(ctx.extra["combined"] - exact) < 0.5
        assert ctx.audit.clean

    def test_no_matching_providers(self, market_setup):
        market, consumer, data = market_setup
        session = market.run_aggregate_workload(
            consumer, "agg-none", ConceptRequirement("motion"),
            AggregateSpec(AggregateKind.MEAN, field_index=0),
            reward_pool=100_000, **ONE_OF_EACH,
        )
        assert isinstance(session.failure, MatchingError)
        # A failed session's record names where the run died.
        assert session.record()["next_phase"] == "match"

    def test_confirmations_exceeding_executors_rejected(self, market_setup):
        market, consumer, data = market_setup
        session = market.run_aggregate_workload(
            consumer, "agg-overconf", ConceptRequirement("physiological"),
            AggregateSpec(AggregateKind.MEAN, field_index=0),
            reward_pool=100_000, min_providers=1, min_samples=1,
            required_confirmations=3,  # only 2 executors exist
        )
        assert isinstance(session.failure, DeployFailure)
        assert "confirmations" in str(session.failure)

    def test_missing_quorum_reports_noncomplete_state(self):
        # One provider means one active executor; with two required
        # confirmations the contract never completes and settlement fails
        # with the observed contract state in the session record.
        rng = np.random.default_rng(77)
        data = make_iot_activity(120, rng)
        market = Marketplace(seed=4)
        market.add_provider("solo", data, SemanticAnnotation("heart_rate", {}))
        consumer = market.add_consumer("c")
        market.add_executor("e0")
        market.add_executor("e1")
        session = market.run_aggregate_workload(
            consumer, "agg-quorum", ConceptRequirement("physiological"),
            AggregateSpec(AggregateKind.MEAN, field_index=0),
            reward_pool=100_000, min_providers=1, min_samples=1,
            required_confirmations=2,
        )
        assert isinstance(session.failure, SettlementFailure)
        assert session.record()["final_state"] == "executing"
        # The typed failure still matches the legacy catch-all.
        assert isinstance(session.failure, MarketplaceError)


class TestCombine:
    def test_sum_adds(self):
        outputs = [
            {"statistic": 10.0, "total_samples": 5},
            {"statistic": 32.0, "total_samples": 8},
        ]
        assert combine_aggregate_outputs(AggregateKind.SUM, outputs) == 42.0

    def test_mean_weighted(self):
        outputs = [
            {"statistic": 1.0, "total_samples": 30},
            {"statistic": 5.0, "total_samples": 10},
        ]
        assert combine_aggregate_outputs(
            AggregateKind.MEAN, outputs
        ) == pytest.approx(2.0)

    def test_histogram_binwise(self):
        outputs = [
            {"statistic": [1.0, 2.0], "total_samples": 3},
            {"statistic": [4.0, 5.0], "total_samples": 9},
        ]
        assert combine_aggregate_outputs(
            AggregateKind.HISTOGRAM, outputs
        ) == [5.0, 7.0]

    def test_empty_rejected(self):
        with pytest.raises(WorkloadSpecError):
            combine_aggregate_outputs(AggregateKind.MEAN, [])


class TestProviderConsent:
    """A provider's participation policy binds every kind of workload."""

    def test_refusing_provider_is_not_matched_into_an_aggregate(self):
        rng = np.random.default_rng(31)
        data = make_iot_activity(600, rng)
        parts = split_dirichlet(data, 4, 1.0, rng, min_samples=10)
        market = Marketplace(seed=9)
        asked = []

        def refuse(kind, matching_records):
            asked.append((kind.workload_id, matching_records))
            return False

        providers = [
            market.add_provider(f"u{index}", part,
                                SemanticAnnotation("heart_rate", {}),
                                **({"policy": refuse} if index == 0 else {}))
            for index, part in enumerate(parts)
        ]
        consumer = market.add_consumer("c")
        market.add_executor("e0")
        market.add_executor("e1")
        session = market.run_aggregate_workload(
            consumer, "agg-consent", ConceptRequirement("physiological"),
            AggregateSpec(AggregateKind.MEAN, field_index=3),
            reward_pool=100_000, **ONE_OF_EACH,
        )
        refuser = providers[0]
        ctx = session.ctx
        assert session.outcome == "settled"
        assert asked == [("agg-consent", 1)]
        assert refuser.address not in [p.address for p in ctx.participants]
        assert refuser.address not in [p.address for held in
                                       ctx.assignments.values() for p in held]
        assert refuser.address not in ctx.extra["sample_counts"]
        assert ctx.payouts.get(refuser.address, 0) == 0
        assert refuser.rewards_received == 0
        # The statistic covers exactly the consenting providers' rows.
        rest = np.concatenate([p.dataset.features[:, 3]
                               for p in providers[1:]])
        assert ctx.extra["combined"] == pytest.approx(float(rest.mean()),
                                                      abs=1e-9)
        assert ctx.audit.clean
