"""E20: vectorized gossip kernel engine — speed and scale.

Two claims, both measured on the seeded HAR workload:

* **Speedup** — at 256 nodes the flat-array kernel engine (what
  ``GossipTrainer`` builds) runs the identical simulation at least an
  order of magnitude faster than the per-node test oracle
  (``tests/kernels/gossip_oracle.py``), while reproducing its
  accuracy-versus-time history *byte-identically*
  (same ``derive_rng`` streams, same IEEE-754 operation order; see
  ``repro.kernels.ops``).  The speedup is the median of
  ``TIMING_REPEATS`` same-process wall-time ratios, the engines
  alternating, so it is meaningful on shared hardware and gated in the
  BENCH trajectory; its spread rides along.
* **Scale** — a 10,000-node gossip experiment, far beyond what the
  per-node oracle can touch in CI, completes in seconds on the kernel
  engine (even the quick suite runs it).

The 10k population uses an even per-node split rather than the Dirichlet
sampler: at that node count a Dirichlet split would need a multi-hundred-
thousand-sample corpus just to satisfy its minimum-partition constraint,
and partition skew is irrelevant to a throughput measurement.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent.parent))  # tests/ (the oracle)

from harness import (  # noqa: E402
    TIMING_REPEATS,
    alternating_repeats,
    har_problem,
    median_spread,
)
from repro.bench import (  # noqa: E402
    Experiment,
    format_table,
    higher_is_better,
    info,
    lower_is_better,
)
from repro.kernels.gossip_kernel import GossipKernelTrainer  # noqa: E402
from repro.ml.datasets import (  # noqa: E402
    make_iot_activity,
    train_test_split,
)
from repro.ml.gossip import GossipConfig, GossipTrainer  # noqa: E402
from repro.ml.models import SoftmaxRegressionModel  # noqa: E402
from tests.kernels.gossip_oracle import GossipNodeTrainer  # noqa: E402

COMPARE_NODES = 256
COMPARE_SEED = 11
SCALE_NODES = 10_000
SCALE_PER_NODE = 12


def factory():
    return SoftmaxRegressionModel(6, 5, l2=0.01)


def build(engine, parts, test, config: GossipConfig, seed: int):
    """One engine by class, with ``GossipTrainer``'s defaults."""
    return engine([factory() for _ in parts], parts, test, config,
                  seed=seed, churn=None,
                  uplinks=[1_250_000.0] * len(parts))


def scale_problem(nodes: int = SCALE_NODES, per_node: int = SCALE_PER_NODE):
    """A seeded even split for the large-population throughput run."""
    rng = np.random.default_rng(424242)
    data = make_iot_activity(nodes * per_node + 2000, rng)
    train, test = train_test_split(
        data, 2000 / (nodes * per_node + 2000), rng)
    split_cls = type(train)
    parts = [
        split_cls(features=train.features[i * per_node:(i + 1) * per_node],
                  targets=train.targets[i * per_node:(i + 1) * per_node])
        for i in range(nodes)
    ]
    return parts, test


def run_bench(quick: bool = False) -> dict:
    duration = 600.0 if quick else 1200.0
    eval_every = 300.0

    # -- engine comparison at 256 nodes, identical seeds --------------------
    parts, test = har_problem(COMPARE_NODES, 6144)

    def timed(engine):
        def run():
            start = time.perf_counter()
            trainer = build(engine, parts, test, GossipConfig(batch_size=8),
                            seed=COMPARE_SEED)
            outcome = trainer.run(duration, eval_interval_s=eval_every)
            return time.perf_counter() - start, trainer, outcome
        return run

    runs = alternating_repeats({"objects": timed(GossipNodeTrainer),
                                "kernel": timed(GossipKernelTrainer)})
    obj_walls = [wall for wall, _, _ in runs["objects"]]
    ker_walls = [wall for wall, _, _ in runs["kernel"]]
    speedup, speedup_spread = median_spread(
        [o / k for o, k in zip(obj_walls, ker_walls)])
    obj_wall = statistics.median(obj_walls)
    ker_wall = statistics.median(ker_walls)
    identical = all(
        obj.history == ker.history
        and np.array_equal(obj_trainer.final_params(),
                           ker_trainer.final_params())
        and obj.events_processed == ker.events_processed
        and obj.bytes_delivered == ker.bytes_delivered
        for (_, obj_trainer, obj), (_, ker_trainer, ker)
        in zip(runs["objects"], runs["kernel"])
    )
    _, _, obj = runs["objects"][0]
    _, _, ker = runs["kernel"][0]

    # -- 10k-node throughput run on the kernel engine -----------------------
    scale_parts, scale_test = scale_problem()
    scale_duration = 120.0 if quick else 600.0
    start = time.perf_counter()
    scale_trainer = GossipTrainer(
        factory, scale_parts, scale_test,
        GossipConfig(batch_size=4), seed=3)
    scale = scale_trainer.run(scale_duration, eval_interval_s=60.0)
    scale_wall = time.perf_counter() - start
    events_per_s = scale.events_processed / scale_wall

    rows = [
        ["objects", f"{obj_wall:.3f}", f"{obj.final_mean_score:.3f}",
         f"{obj.events_processed:,}"],
        ["kernel", f"{ker_wall:.3f}", f"{ker.final_mean_score:.3f}",
         f"{ker.events_processed:,}"],
    ]
    lines = format_table(
        ["engine", "wall s", "final acc", "events"], rows)
    lines += [
        "",
        f"speedup {speedup:.1f}x at {COMPARE_NODES} nodes (median of "
        f"{TIMING_REPEATS} alternating repeats, spread "
        f"{speedup_spread:.3f}), byte-identical: {identical}",
        f"{SCALE_NODES:,} nodes x {scale_duration:.0f}s sim: "
        f"{scale_wall:.1f}s wall, {scale.events_processed:,} events "
        f"({events_per_s:,.0f} events/s), "
        f"final acc {scale.final_mean_score:.3f}",
    ]

    metrics = {
        # The median of paired wall-time *ratios* on the same
        # process/hardware: stable enough to gate, with slack for noisy
        # CI runners.
        "kernel_speedup_256": higher_is_better(speedup, unit="x",
                                               threshold_pct=30.0),
        "kernel_speedup_256_spread": info(speedup_spread),
        "scale_10k_final_score": higher_is_better(scale.final_mean_score),
        "scale_10k_events": lower_is_better(scale.events_processed,
                                            unit="events"),
        "objects_wall_s": info(obj_wall, unit="s"),
        "kernel_wall_s": info(ker_wall, unit="s"),
        "scale_10k_wall_s": info(scale_wall, unit="s"),
        "scale_10k_events_per_s": info(events_per_s, unit="events/s"),
    }
    claims = {
        # An order of magnitude at 256 nodes, byte-identical to the object
        # engine...
        "kernel_10x": speedup >= 10.0,
        "kernel_identical_histories": identical,
        # ...and the 10k-node run simulated something substantial.
        "scale_substantial": scale.events_processed > 100_000,
        "scale_learns": scale.final_mean_score > 0.3,
    }
    return {"metrics": metrics, "lines": lines, "claims": claims}


EXPERIMENT = Experiment("E20", "vectorized gossip kernels", run_bench)
