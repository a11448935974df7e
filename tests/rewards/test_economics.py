"""Tests for the executor-economics analysis (Section VI)."""

from __future__ import annotations

import pytest

from repro.errors import RewardError
from repro.rewards.economics import (
    ExecutorCostModel,
    ViabilityAnalysis,
)
from repro.tee.cost_model import WorkloadProfile, mlp_profile


@pytest.fixture
def workload() -> WorkloadProfile:
    return mlp_profile(batch=1024, features=64, hidden=[256], outputs=8)


@pytest.fixture
def analysis(workload) -> ViabilityAnalysis:
    return ViabilityAnalysis(
        workload=workload, reward_pool=1_000_000, infra_share=0.1,
        num_executors=4, token_value=1e-5,
    )


class TestCostModel:
    def test_cost_components_positive(self):
        costs = ExecutorCostModel()
        assert costs.capital_cost_per_s > 0
        assert costs.energy_cost_per_s > 0

    def test_longer_jobs_cost_more(self):
        costs = ExecutorCostModel()
        assert costs.cost_of_job(100.0) > costs.cost_of_job(1.0)

    def test_fixed_cost_floor(self):
        costs = ExecutorCostModel(fixed_cost_per_job=0.5)
        assert costs.cost_of_job(0.0) == 0.5

    def test_negative_duration_rejected(self):
        with pytest.raises(RewardError):
            ExecutorCostModel().cost_of_job(-1.0)

    def test_lower_utilization_raises_capital_cost(self):
        busy = ExecutorCostModel(utilization=0.9)
        idle = ExecutorCostModel(utilization=0.1)
        assert idle.capital_cost_per_s > busy.capital_cost_per_s

    def test_invalid_parameters_rejected(self):
        with pytest.raises(RewardError):
            ExecutorCostModel(utilization=0.0)
        with pytest.raises(RewardError):
            ExecutorCostModel(amortization_s=0.0)


class TestViability:
    def test_revenue_split_across_executors(self, workload):
        one = ViabilityAnalysis(workload=workload, reward_pool=1000,
                                infra_share=0.1, num_executors=1)
        four = ViabilityAnalysis(workload=workload, reward_pool=1000,
                                 infra_share=0.1, num_executors=4)
        assert one.revenue_per_executor == 4 * four.revenue_per_executor

    def test_generous_pool_is_viable(self, analysis):
        assert analysis.profit_per_executor > 0
        assert analysis.is_viable

    def test_tiny_pool_is_not_viable(self, workload):
        poor = ViabilityAnalysis(
            workload=workload, reward_pool=10, infra_share=0.1,
            num_executors=4, token_value=1e-9,
        )
        assert not poor.is_viable

    def test_break_even_share(self, analysis):
        share = analysis.break_even_infra_share()
        assert 0 < share < analysis.infra_share  # our 10% is comfortable
        from dataclasses import replace

        marginal = replace(analysis, infra_share=share)
        assert marginal.profit_per_executor == pytest.approx(0.0, abs=1e-9)

    def test_break_even_unreachable_raises(self, workload):
        poor = ViabilityAnalysis(
            workload=workload, reward_pool=1, infra_share=0.1,
            num_executors=4, token_value=1e-9,
        )
        with pytest.raises(RewardError):
            poor.break_even_infra_share()

    def test_competitiveness_ratio(self, analysis):
        ratio = analysis.competitiveness_vs_cloud()
        assert ratio > 0

    def test_validation(self, workload):
        with pytest.raises(RewardError):
            ViabilityAnalysis(workload=workload, reward_pool=100,
                              infra_share=1.0, num_executors=1)
        with pytest.raises(RewardError):
            ViabilityAnalysis(workload=workload, reward_pool=100,
                              infra_share=0.1, num_executors=0)
