"""E5 (Section III-C): gossip learning vs. federated learning.

Reproduces the comparison the paper cites (Hegedűs et al. 2021): on the
same non-IID partitions over the same simulated network, gossip learning
reaches accuracy comparable to FedAvg — without any coordinator — while its
traffic spreads evenly across nodes instead of concentrating at a server.

Series reported: accuracy-versus-time for both protocols, total traffic,
and the load of the most-loaded node (gossip) versus the server (FedAvg).
"""

from __future__ import annotations

from harness import har_problem
from repro.bench import (
    Experiment,
    format_table,
    higher_is_better,
    info,
    lower_is_better,
)
from repro.ml.federated import FederatedConfig, FederatedTrainer
from repro.ml.gossip import GossipConfig, GossipTrainer
from repro.ml.models import SoftmaxRegressionModel

DURATION_S = 1500.0
EVAL_EVERY_S = 300.0


def factory():
    return SoftmaxRegressionModel(6, 5)


def run_bench(quick: bool = False) -> dict:
    """Both protocols on the same seeded split (fully deterministic)."""
    parts, test = har_problem(12 if quick else 24,
                              1500 if quick else 3000)
    duration = 600.0 if quick else DURATION_S

    gossip = GossipTrainer(
        factory, parts, test,
        GossipConfig(wake_interval_s=10, local_steps=4, learning_rate=0.3),
        seed=1,
    ).run(duration, EVAL_EVERY_S)
    fed = FederatedTrainer(
        factory, parts, test,
        FederatedConfig(round_interval_s=30, client_fraction=0.5,
                        local_steps=4, learning_rate=0.3),
        seed=1,
    ).run(duration, EVAL_EVERY_S)

    rows = []
    for (t, g_acc), (_, f_acc) in zip(gossip.history, fed.history):
        rows.append([f"{t:.0f}", f"{g_acc:.3f}", f"{f_acc:.3f}"])
    lines = format_table(["sim time s", "gossip acc", "fedavg acc"], rows)
    lines += [
        "",
        f"final: gossip {gossip.final_mean_score:.3f} vs "
        f"fedavg {fed.final_score:.3f}",
        f"traffic: gossip total {gossip.bytes_delivered:,} B, "
        f"max node {gossip.max_node_bytes:,} B "
        f"({gossip.max_node_bytes / gossip.bytes_delivered:.1%})",
        f"traffic: fedavg total {fed.bytes_delivered:,} B, "
        f"server {fed.server_bytes:,} B (~100%)",
    ]
    metrics = {
        "gossip_final_score": higher_is_better(gossip.final_mean_score),
        "fedavg_final_score": higher_is_better(fed.final_score),
        "gossip_bytes": lower_is_better(gossip.bytes_delivered, unit="B"),
        "gossip_max_node_share": lower_is_better(
            gossip.max_node_bytes / gossip.bytes_delivered),
        "fedavg_server_bytes": info(fed.server_bytes, unit="B"),
    }
    claims = {
        # Gossip is competitive: within 10 accuracy points of FedAvg...
        "gossip_within_10_points":
            gossip.final_mean_score > fed.final_score - 0.10,
        # ...and decentralized: its heaviest node is nowhere near a hub...
        "gossip_decentralized":
            gossip.max_node_bytes < 0.3 * gossip.bytes_delivered,
        # ...while FedAvg's server touches every delivered byte.
        "fedavg_server_is_hub": fed.server_bytes >= fed.bytes_delivered,
    }
    return {"metrics": metrics, "lines": lines, "claims": claims}


EXPERIMENT = Experiment("E5", "gossip vs federated learning", run_bench)
