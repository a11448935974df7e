"""Tests for the backend cost model (the E3/E4 instrument)."""

from __future__ import annotations

import pytest

from repro.tee.cost_model import (
    CostModel,
    ExecutionBackend,
    NetworkProfile,
    WorkloadProfile,
    mlp_profile,
)


@pytest.fixture
def model() -> CostModel:
    return CostModel()


@pytest.fixture
def small_profile() -> WorkloadProfile:
    return WorkloadProfile(macs=100_000, data_bytes=64_000,
                           interactive_depth=2)


class TestOrdering:
    def test_paper_ranking_holds(self, model, small_profile):
        """The paper's qualitative claim: plain < TEE << SMC < HE."""
        ranking = model.ranking(small_profile)
        assert ranking == [
            ExecutionBackend.PLAIN, ExecutionBackend.TEE,
            ExecutionBackend.SMC, ExecutionBackend.HE,
        ]

    def test_ranking_holds_across_sizes(self, model):
        for batch in (16, 256, 2048):
            profile = mlp_profile(batch=batch, features=32, hidden=[64],
                                  outputs=8)
            assert model.ranking(profile)[0] == ExecutionBackend.PLAIN
            assert model.ranking(profile)[-1] == ExecutionBackend.HE

    def test_he_orders_of_magnitude_slower(self, model, small_profile):
        he = model.estimate_seconds(ExecutionBackend.HE, small_profile)
        assert he > 1_000 * model.plain_seconds(small_profile)

    def test_tee_overhead_modest_for_large_jobs(self, model):
        profile = WorkloadProfile(macs=10**9, data_bytes=10**6,
                                  transitions=10)
        tee = model.estimate_seconds(ExecutionBackend.TEE, profile)
        assert tee < 2.0 * model.plain_seconds(profile)  # attestation amortized


class TestTEEBehaviors:
    def test_epc_paging_penalty(self, model):
        inside = WorkloadProfile(macs=10**8, data_bytes=10 * 2**20)
        beyond = WorkloadProfile(macs=10**8, data_bytes=400 * 2**20)
        assert model.tee_seconds(beyond) > model.tee_seconds(inside)

    def test_transition_cost_counted(self, model):
        few = WorkloadProfile(macs=1000, data_bytes=100, transitions=2)
        many = WorkloadProfile(macs=1000, data_bytes=100, transitions=2000)
        assert model.tee_seconds(many) > model.tee_seconds(few)


class TestSMCBehaviors:
    def test_depth_costs_latency(self, model):
        shallow = WorkloadProfile(macs=1000, data_bytes=100,
                                  interactive_depth=1)
        deep = WorkloadProfile(macs=1000, data_bytes=100,
                               interactive_depth=50)
        difference = model.smc_seconds(deep) - model.smc_seconds(shallow)
        assert difference == pytest.approx(49 * model.network.latency_s)

    def test_network_profile_matters(self):
        fast = CostModel(network=NetworkProfile(latency_s=0.001))
        slow = CostModel(network=NetworkProfile(latency_s=0.2))
        profile = WorkloadProfile(macs=1000, data_bytes=100,
                                  interactive_depth=10)
        assert slow.smc_seconds(profile) > fast.smc_seconds(profile)


class TestProfiles:
    def test_mlp_profile_macs(self):
        profile = mlp_profile(batch=10, features=4, hidden=[8], outputs=2)
        assert profile.macs == 10 * (4 * 8 + 8 * 2)
        assert profile.interactive_depth == 2

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            WorkloadProfile(macs=-1, data_bytes=0)
        with pytest.raises(ValueError):
            WorkloadProfile(macs=1, data_bytes=1, interactive_depth=0)
