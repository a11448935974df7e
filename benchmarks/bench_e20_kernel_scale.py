"""E20: vectorized gossip kernel engine — speed and scale.

Two claims, both measured on the seeded HAR workload:

* **Speedup** — at 256 nodes the flat-array kernel engine (what
  ``GossipTrainer`` hands back for this workload) runs the identical
  simulation at least an order of magnitude faster than the per-node
  object engine, built here by class name as the reference,
  while reproducing its accuracy-versus-time history *byte-identically*
  (same ``derive_rng`` streams, same IEEE-754 operation order; see
  ``repro.kernels.ops``).  The speedup is a same-process wall-time ratio,
  so it is meaningful on shared hardware and gated in the BENCH
  trajectory.
* **Scale** — a 10,000-node gossip experiment, far beyond what the
  object engine can touch in CI, completes in seconds on the kernel
  engine (even the quick suite runs it).

The 10k population uses an even per-node split rather than the Dirichlet
sampler: at that node count a Dirichlet split would need a multi-hundred-
thousand-sample corpus just to satisfy its minimum-partition constraint,
and partition skew is irrelevant to a throughput measurement.
"""

from __future__ import annotations

import time

import numpy as np

from harness import har_problem
from repro.bench import Experiment, higher_is_better, info, lower_is_better
from repro.kernels.gossip_kernel import GossipKernelTrainer
from repro.ml.datasets import make_iot_activity, train_test_split
from repro.ml.gossip import GossipConfig, GossipNodeTrainer, GossipTrainer
from repro.ml.models import SoftmaxRegressionModel
from reporting import format_table, report

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
    runs = {}
    for name, engine in (("objects", GossipNodeTrainer),
                         ("kernel", GossipKernelTrainer)):
        start = time.perf_counter()
        trainer = build(engine, parts, test, GossipConfig(batch_size=8),
                        seed=COMPARE_SEED)
        outcome = trainer.run(duration, eval_interval_s=eval_every)
        runs[name] = (time.perf_counter() - start, trainer, outcome)

    obj_wall, obj_trainer, obj = runs["objects"]
    ker_wall, ker_trainer, ker = runs["kernel"]
    speedup = obj_wall / ker_wall
    identical = (
        obj.history == ker.history
        and np.array_equal(obj_trainer.final_params(),
                           ker_trainer.final_params())
        and obj.events_processed == ker.events_processed
        and obj.bytes_delivered == ker.bytes_delivered
    )

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
        f"speedup {speedup:.1f}x at {COMPARE_NODES} nodes, "
        f"byte-identical: {identical}",
        f"{SCALE_NODES:,} nodes x {scale_duration:.0f}s sim: "
        f"{scale_wall:.1f}s wall, {scale.events_processed:,} events "
        f"({events_per_s:,.0f} events/s), "
        f"final acc {scale.final_mean_score:.3f}",
    ]

    metrics = {
        # A wall-time *ratio* on the same process/hardware: stable enough
        # to gate, with slack for noisy CI runners.
        "kernel_speedup_256": higher_is_better(speedup, unit="x",
                                               threshold_pct=30.0),
        "kernel_identical_histories": higher_is_better(
            float(identical), threshold_pct=0.0),
        "scale_10k_final_score": higher_is_better(scale.final_mean_score),
        "scale_10k_events": lower_is_better(scale.events_processed,
                                            unit="events"),
        "objects_wall_s": info(obj_wall, unit="s"),
        "kernel_wall_s": info(ker_wall, unit="s"),
        "scale_10k_wall_s": info(scale_wall, unit="s"),
        "scale_10k_events_per_s": info(events_per_s, unit="events/s"),
    }
    return {"metrics": metrics, "lines": lines, "speedup": speedup,
            "identical": identical, "scale": scale}


EXPERIMENT = Experiment("E20", "vectorized gossip kernels", run_bench)


def test_e20_kernel_scale():
    payload = run_bench(quick=True)
    report("E20", "kernel engine speedup and 10k-node scale",
           payload["lines"])

    # The tentpole claims: an order of magnitude at 256 nodes, while
    # staying byte-identical to the object engine.
    assert payload["speedup"] >= 10.0
    assert payload["identical"]
    # The 10k-node run actually simulated something substantial.
    scale = payload["scale"]
    assert scale.events_processed > 100_000
    assert scale.final_mean_score > 0.3
