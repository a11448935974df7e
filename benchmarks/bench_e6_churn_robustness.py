"""E6 (Section III-C): robustness to churn and coordinator failure.

The paper's argument against federated learning is its central coordinator:
a scalability bottleneck and a single point of failure.  This experiment
sweeps node availability and compares:

* gossip accuracy (mean over online nodes) — should degrade gracefully;
* FedAvg with a *reliable* server — the generous baseline;
* FedAvg whose server churns like every other node — the honest
  comparison for a marketplace with no privileged entity; its completed
  round count collapses.
"""

from __future__ import annotations


from harness import har_problem
from repro.bench import Experiment, higher_is_better, info
from repro.ml.federated import FederatedConfig, FederatedTrainer
from repro.ml.gossip import GossipConfig, GossipTrainer
from repro.ml.models import SoftmaxRegressionModel
from repro.net.churn import ChurnModel
from reporting import format_table, report

DURATION_S = 1200.0
AVAILABILITIES = [1.0, 0.8, 0.5, 0.3]


def factory():
    return SoftmaxRegressionModel(6, 5)


def run_bench(quick: bool = False) -> dict:
    """The availability sweep (fully deterministic: seeded churn)."""
    parts, test = har_problem(12 if quick else 24,
                              1500 if quick else 3000)
    duration = 600.0 if quick else DURATION_S
    availabilities = [1.0, 0.3] if quick else AVAILABILITIES

    rows = []
    gossip_scores = []
    fed_churned_rounds = []
    fed_reliable_rounds = []
    for availability in availabilities:
        churn = (None if availability == 1.0
                 else ChurnModel.from_availability(availability,
                                                   mean_online_s=60))
        gossip = GossipTrainer(
            factory, parts, test,
            GossipConfig(wake_interval_s=10, learning_rate=0.3),
            seed=3, churn=churn,
        ).run(duration, duration)
        fed_reliable = FederatedTrainer(
            factory, parts, test,
            FederatedConfig(round_interval_s=30, learning_rate=0.3),
            seed=3, churn=churn, server_subject_to_churn=False,
        ).run(duration, duration)
        fed_churned = FederatedTrainer(
            factory, parts, test,
            FederatedConfig(round_interval_s=30, learning_rate=0.3),
            seed=3, churn=churn, server_subject_to_churn=True,
        ).run(duration, duration)
        gossip_scores.append(gossip.final_online_score)
        fed_churned_rounds.append(fed_churned.rounds_completed)
        fed_reliable_rounds.append(fed_reliable.rounds_completed)
        rows.append([
            f"{availability:.0%}",
            f"{gossip.final_online_score:.3f}",
            f"{fed_reliable.final_score:.3f}",
            f"{fed_churned.final_score:.3f}",
            fed_reliable.rounds_completed,
            fed_churned.rounds_completed,
        ])

    lines = format_table(
        ["availability", "gossip acc", "fed acc (reliable srv)",
         "fed acc (churned srv)", "fed rounds (rel)",
         "fed rounds (churn)"],
        rows,
    )
    metrics = {
        "gossip_score_full": higher_is_better(gossip_scores[0]),
        "gossip_score_low_availability": higher_is_better(
            gossip_scores[-1], threshold_pct=10.0),
        "coordinator_fragile": higher_is_better(
            1.0 if fed_churned_rounds[-1] < 0.6 * fed_reliable_rounds[-1]
            else 0.0,
            threshold_pct=1.0),
        "fed_rounds_reliable_low": info(fed_reliable_rounds[-1]),
        "fed_rounds_churned_low": info(fed_churned_rounds[-1]),
    }
    return {"metrics": metrics, "lines": lines,
            "gossip_scores": gossip_scores,
            "fed_reliable_rounds": fed_reliable_rounds,
            "fed_churned_rounds": fed_churned_rounds}


EXPERIMENT = Experiment("E6", "churn and coordinator failure", run_bench)


def test_e6_churn_sweep():
    payload = run_bench()
    report("E6", "availability sweep: gossip vs fedavg", payload["lines"])

    # Gossip at 30% availability still learns something real.
    assert payload["gossip_scores"][-1] > 0.45
    # A churned coordinator completes far fewer rounds than a reliable one.
    assert payload["fed_churned_rounds"][-1] < \
        0.6 * payload["fed_reliable_rounds"][-1]
