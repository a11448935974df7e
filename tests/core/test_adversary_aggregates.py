"""Tests for adversarial executors and aggregate (non-ML) workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Marketplace, ModelSpec, TrainingSpec, WorkloadSpec
from repro.core.adversary import (
    CRONY_ADDRESS,
    ExecutorBehavior,
    run_with_adversaries,
)
from repro.core.aggregates import (
    AggregateKind,
    AggregateResult,
    AggregateSpec,
    aggregate_enclave_entry_point,
)
from repro.core.workload import join_rows, serialize_partition
from repro.errors import (
    MarketplaceError,
    SettlementFailure,
    WorkloadSpecError,
)
from repro.ml.datasets import (
    make_iot_activity,
    split_dirichlet,
    train_test_split,
)
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation
from tests.core.trail_sink import TrailSink


@pytest.fixture(scope="module")
def adversary_market():
    rng = np.random.default_rng(61)
    data = make_iot_activity(800, rng)
    train, validation = train_test_split(data, 0.25, rng)
    parts = split_dirichlet(train, 4, 1.0, rng, min_samples=10)
    market = Marketplace(seed=13)
    for index, part in enumerate(parts):
        market.add_provider(f"u{index}", part,
                            SemanticAnnotation("heart_rate", {}))
    consumer = market.add_consumer("c", validation=validation)
    for index in range(3):
        market.add_executor(f"e{index}")
    return market, consumer


def spec(workload_id: str, confirmations: int) -> WorkloadSpec:
    return WorkloadSpec(
        workload_id=workload_id,
        requirement=ConceptRequirement("physiological"),
        model=ModelSpec(family="softmax", num_features=6, num_classes=5),
        training=TrainingSpec(steps=30, learning_rate=0.3),
        reward_pool=100_000, min_providers=2, min_samples=50,
        required_confirmations=confirmations,
    )


B = ExecutorBehavior

#: E16's seven executor mixes (``benchmarks/bench_e16_fault_injection.py``).
E16_MIXES = {
    "all honest": [B.HONEST, B.HONEST, B.HONEST],
    "1 liar / 3": [B.HONEST, B.HONEST, B.WRONG_RESULT],
    "1 self-dealer / 3": [B.HONEST, B.HONEST, B.SELF_DEALING],
    "1 lazy / 3": [B.HONEST, B.HONEST, B.SILENT],
    "2 liars / 3": [B.HONEST, B.WRONG_RESULT, B.WRONG_RESULT],
    "split 3 ways": [B.HONEST, B.WRONG_RESULT, B.SELF_DEALING],
    "all lazy": [B.SILENT, B.SILENT, B.SILENT],
}


class TestAdversarialExecutors:
    def test_honest_majority_wins(self, adversary_market):
        market, consumer = adversary_market
        session = run_with_adversaries(
            market, consumer, spec("adv-major", 2),
            [ExecutorBehavior.HONEST, ExecutorBehavior.HONEST,
             ExecutorBehavior.WRONG_RESULT],
        )
        assert session.outcome == "settled"
        assert sum(session.ctx.payouts.values()) == 100_000

    def test_vote_reverted_after_quorum_is_reported(self, adversary_market):
        market, consumer = adversary_market
        sink = market.events.attach(TrailSink())
        session = run_with_adversaries(
            market, consumer, spec("adv-late-vote", 2),
            [ExecutorBehavior.HONEST, ExecutorBehavior.HONEST,
             ExecutorBehavior.WRONG_RESULT],
        )
        assert session.outcome == "settled"
        market.events.detach(sink)
        reverted = [
            event for event in sink.for_session(session.session_id)
            if event.name == "chain.tx_reverted"
        ]
        assert [(e.actor, e.data["method"]) for e in reverted] == [
            (market.executors[2].address, "submit_result")]
        assert "requires state 'executing'" in reverted[0].data["reason"]

    def test_finalized_result_is_the_honest_one(self, adversary_market):
        market, consumer = adversary_market
        session = run_with_adversaries(
            market, consumer, spec("adv-honest-hash", 2),
            [ExecutorBehavior.HONEST, ExecutorBehavior.HONEST,
             ExecutorBehavior.WRONG_RESULT],
        )
        completion = [
            log for _, log in market.chain.events(
                session.ctx.workload_address, name="WorkloadCompleted")
            if log.data["result_hash"] == session.ctx.result_hash
        ]
        assert completion, "honest result must be the confirmed one"

    def test_split_vote_blocks_payout(self, adversary_market):
        market, consumer = adversary_market
        session = run_with_adversaries(
            market, consumer, spec("adv-split", 2),
            [ExecutorBehavior.HONEST, ExecutorBehavior.WRONG_RESULT,
             ExecutorBehavior.SELF_DEALING],
        )
        assert session.outcome == "failed"
        assert isinstance(session.failure, SettlementFailure)
        assert session.read_state() == "cancelled"
        assert session.ctx.refunded == 100_000
        assert session.ctx.payouts == {}

    def test_lazy_executors_block_payout_not_corrupt_it(self,
                                                        adversary_market):
        market, consumer = adversary_market
        session = run_with_adversaries(
            market, consumer, spec("adv-lazy", 2),
            [ExecutorBehavior.HONEST, ExecutorBehavior.SILENT,
             ExecutorBehavior.SILENT],
        )
        assert session.outcome == "failed"
        assert session.ctx.payouts == {}

    def test_self_dealing_minority_fails(self, adversary_market):
        market, consumer = adversary_market
        session = run_with_adversaries(
            market, consumer, spec("adv-greed", 2),
            [ExecutorBehavior.HONEST, ExecutorBehavior.HONEST,
             ExecutorBehavior.SELF_DEALING],
        )
        assert session.outcome == "settled"  # honest quorum reached
        assert session.ctx.payouts.get(CRONY_ADDRESS, 0) == 0

    def test_behavior_count_validated(self, adversary_market):
        market, consumer = adversary_market
        with pytest.raises(MarketplaceError):
            run_with_adversaries(market, consumer, spec("adv-bad", 1),
                                 [ExecutorBehavior.HONEST])

    def test_confirmed_result_none_while_pending(self, adversary_market):
        market, consumer = adversary_market
        session = run_with_adversaries(
            market, consumer, spec("adv-pending", 3),
            [ExecutorBehavior.HONEST, ExecutorBehavior.SILENT,
             ExecutorBehavior.SILENT],
        )
        assert session.outcome == "failed"

    @pytest.mark.parametrize("name", list(E16_MIXES))
    def test_every_e16_mix_conserves_the_escrow(self, adversary_market,
                                                name):
        """Payouts + refund = escrow, and the contract keeps nothing."""
        market, consumer = adversary_market
        index = list(E16_MIXES).index(name)
        session = run_with_adversaries(
            market, consumer, spec(f"adv-escrow-{index}", 2),
            E16_MIXES[name],
        )
        ctx = session.ctx
        assert sum(ctx.payouts.values()) + ctx.refunded == 100_000
        assert market.chain.state.balance_of(ctx.workload_address) == 0


def make_inputs(parts) -> dict:
    inputs = {}
    for index, part in enumerate(parts):
        inputs[f"provider:0x{index:040x}"] = join_rows(
            serialize_partition(part.features, part.targets))
    return inputs


class TestAggregates:
    @pytest.fixture(scope="class")
    def inputs_and_values(self):
        rng = np.random.default_rng(62)
        data = make_iot_activity(300, rng)
        parts = [data.subset(np.arange(0, 150)),
                 data.subset(np.arange(150, 300))]
        return make_inputs(parts), data.features[:, 0]

    def test_exact_mean(self, inputs_and_values):
        inputs, column = inputs_and_values
        output = aggregate_enclave_entry_point(
            inputs, AggregateSpec(AggregateKind.MEAN, 0).to_dict(), 1
        )
        assert output["statistic"] == pytest.approx(column.mean())
        assert output["total_samples"] == 300

    def test_exact_sum_and_count(self, inputs_and_values):
        inputs, column = inputs_and_values
        total = aggregate_enclave_entry_point(
            inputs, AggregateSpec(AggregateKind.SUM, 0).to_dict(), 1
        )
        count = aggregate_enclave_entry_point(
            inputs, AggregateSpec(AggregateKind.COUNT, 0).to_dict(), 1
        )
        assert total["statistic"] == pytest.approx(column.sum())
        assert count["statistic"] == 300

    def test_histogram(self, inputs_and_values):
        inputs, column = inputs_and_values
        edges = (-2.0, 0.0, 0.5, 2.0)
        output = aggregate_enclave_entry_point(
            inputs,
            AggregateSpec(AggregateKind.HISTOGRAM, 0,
                          bin_edges=edges).to_dict(),
            1,
        )
        expected, _ = np.histogram(column, bins=np.array(edges))
        assert output["statistic"] == [float(c) for c in expected]

    def test_quantile(self, inputs_and_values):
        inputs, column = inputs_and_values
        output = aggregate_enclave_entry_point(
            inputs,
            AggregateSpec(AggregateKind.QUANTILE, 0,
                          quantile=0.9).to_dict(),
            1,
        )
        assert output["statistic"] == pytest.approx(
            np.quantile(column, 0.9)
        )

    def test_dp_noise_applied_and_exact_hidden(self, inputs_and_values):
        inputs, column = inputs_and_values
        output = aggregate_enclave_entry_point(
            inputs,
            AggregateSpec(AggregateKind.MEAN, 0, dp_epsilon=1.0,
                          sensitivity=0.01).to_dict(),
            7,
        )
        assert output["exact"] is None
        assert output["statistic"] != pytest.approx(column.mean())
        # Unbiased: close for small sensitivity.
        assert abs(output["statistic"] - column.mean()) < 0.5

    def test_dp_noise_deterministic_under_seed(self, inputs_and_values):
        inputs, _ = inputs_and_values
        spec_dict = AggregateSpec(AggregateKind.MEAN, 0,
                                  dp_epsilon=1.0).to_dict()
        a = aggregate_enclave_entry_point(inputs, spec_dict, 7)
        b = aggregate_enclave_entry_point(inputs, spec_dict, 7)
        assert a["statistic"] == b["statistic"]

    def test_result_wrapper(self, inputs_and_values):
        inputs, _ = inputs_and_values
        output = aggregate_enclave_entry_point(
            inputs, AggregateSpec(AggregateKind.COUNT, 0).to_dict(), 1
        )
        result = AggregateResult.from_output(output)
        assert result.kind is AggregateKind.COUNT
        assert result.total_samples == 300
        assert len(result.sample_counts) == 2

    def test_validation(self):
        with pytest.raises(WorkloadSpecError):
            AggregateSpec(AggregateKind.HISTOGRAM, 0, bin_edges=(1.0,))
        with pytest.raises(WorkloadSpecError):
            AggregateSpec(AggregateKind.QUANTILE, 0, quantile=1.5)
        with pytest.raises(WorkloadSpecError):
            AggregateSpec(AggregateKind.MEAN, 0, dp_epsilon=-1.0)
        with pytest.raises(WorkloadSpecError):
            aggregate_enclave_entry_point(
                {}, AggregateSpec(AggregateKind.MEAN, 0).to_dict(), 1
            )

    def test_field_index_out_of_range(self, inputs_and_values):
        inputs, _ = inputs_and_values
        with pytest.raises(WorkloadSpecError):
            aggregate_enclave_entry_point(
                inputs, AggregateSpec(AggregateKind.MEAN, 99).to_dict(), 1
            )
