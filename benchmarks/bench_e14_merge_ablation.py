"""E14 (ablation, Section III-C): gossip merge-strategy comparison.

The gossip-learning literature the paper cites weights merges by model age;
FedAvg weights by sample count.  This ablation runs the same gossip
schedule under all three merge rules on both IID and pathologically
non-IID partitions, reporting final mean accuracy — the evidence for the
DESIGN.md default (age weighting).
"""

from __future__ import annotations

import numpy as np

from repro.bench import Experiment, higher_is_better, info
from repro.ml.datasets import (
    make_iot_activity,
    split_by_label,
    split_iid,
    train_test_split,
)
from repro.ml.gossip import GossipConfig, GossipTrainer
from repro.ml.merge import MergeStrategy
from repro.ml.models import SoftmaxRegressionModel
from reporting import format_table, report

DURATION_S = 900.0
NODES = 20


def factory():
    return SoftmaxRegressionModel(6, 5)


def run(parts, test, strategy: MergeStrategy, seed: int,
        duration: float = DURATION_S) -> float:
    trainer = GossipTrainer(
        factory, parts, test,
        GossipConfig(wake_interval_s=10, local_steps=4, learning_rate=0.3,
                     merge_strategy=strategy),
        seed=seed,
    )
    return trainer.run(duration, duration).final_mean_score


def run_bench(quick: bool = False) -> dict:
    """All merge rules on IID and sharded splits (seeded, deterministic)."""
    duration = 450.0 if quick else DURATION_S
    nodes = 10 if quick else NODES
    rng = np.random.default_rng(140)
    data = make_iot_activity(1500 if quick else 3000, rng)
    train, test = train_test_split(data, 0.25, rng)
    iid_parts = split_iid(train, nodes, rng)
    shard_parts = split_by_label(train, nodes, 2, rng)

    rows = []
    results: dict[tuple[str, str], float] = {}
    for strategy in MergeStrategy:
        iid_score = run(iid_parts, test, strategy, seed=1,
                        duration=duration)
        shard_score = run(shard_parts, test, strategy, seed=1,
                          duration=duration)
        results[(strategy.value, "iid")] = iid_score
        results[(strategy.value, "shard")] = shard_score
        rows.append([strategy.value, f"{iid_score:.3f}",
                     f"{shard_score:.3f}"])

    lines = format_table(
        ["merge strategy", "IID accuracy", "2-label-shard accuracy"],
        rows,
    )
    iid_scores = [results[(s.value, "iid")] for s in MergeStrategy]
    metrics = {
        "age_weighted_iid_score": higher_is_better(
            results[(MergeStrategy.AGE_WEIGHTED.value, "iid")]),
        "min_iid_score": higher_is_better(min(iid_scores),
                                          threshold_pct=10.0),
        "age_weighted_shard_score": info(
            results[(MergeStrategy.AGE_WEIGHTED.value, "shard")]),
    }
    return {"metrics": metrics, "lines": lines, "results": results}


EXPERIMENT = Experiment("E14", "gossip merge-strategy ablation", run_bench)


def test_e14_merge_strategy_ablation():
    payload = run_bench()
    report("E14", "gossip merge-strategy ablation", payload["lines"])

    results = payload["results"]
    # Every strategy must learn on IID data.
    for strategy in MergeStrategy:
        assert results[(strategy.value, "iid")] > 0.6
    # Non-IID sharding is harder for every strategy.
    for strategy in MergeStrategy:
        assert results[(strategy.value, "shard")] <= \
            results[(strategy.value, "iid")] + 0.05
