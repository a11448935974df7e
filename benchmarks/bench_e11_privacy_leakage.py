"""E11 (Section IV-D): DP noise shrinks membership-inference leakage.

The experiment the paper's privacy discussion implies: train the same
memorization-prone model with and without DP-SGD at a sweep of epsilon
targets, attack each with loss-threshold membership inference, and chart
attack advantage (the leak) against model accuracy (the cost).
"""

from __future__ import annotations

import numpy as np

from repro.bench import Experiment, format_table, higher_is_better, info
from repro.ml.datasets import make_binary_classification
from repro.ml.models import MLPClassifier
from repro.privacy.attacks import membership_inference_attack
from repro.privacy.dpsgd import (
    DPSGDConfig,
    noise_multiplier_for_epsilon,
    train_dpsgd,
)

MEMBERS = 60
STEPS = 300
BATCH = 12
EPSILONS = [8.0, 2.0, 0.5]


def setup_data():
    rng = np.random.default_rng(777)
    data = make_binary_classification(4 * MEMBERS, 8, rng, noise=4.0)
    members = data.subset(np.arange(0, MEMBERS))
    nonmembers = data.subset(np.arange(MEMBERS, 2 * MEMBERS))
    test = data.subset(np.arange(2 * MEMBERS, 4 * MEMBERS))
    return members, nonmembers, test


def fresh_model():
    return MLPClassifier(8, 64, 2, init_rng=np.random.default_rng(1))


def attack(model, members, nonmembers):
    return membership_inference_attack(
        model, members.features, members.targets.astype(int),
        nonmembers.features, nonmembers.targets.astype(int),
    )


def run_bench(quick: bool = False) -> dict:
    """The epsilon sweep (deterministic: every RNG is seeded)."""
    steps = 120 if quick else STEPS
    base_steps = 800 if quick else 2000
    epsilons = [8.0, 0.5] if quick else EPSILONS

    members, nonmembers, test = setup_data()
    rows = []

    # The no-DP, heavily-overfit control arm.
    baseline = fresh_model()
    baseline.train_steps(members.features, members.targets.astype(int),
                         base_steps, 0.3, MEMBERS, np.random.default_rng(2))
    base_attack = attack(baseline, members, nonmembers)
    base_acc = baseline.score(test.features, test.targets.astype(int))
    rows.append(["inf (no DP)", f"{base_attack.advantage:.3f}",
                 f"{base_attack.auc:.3f}", f"{base_acc:.3f}"])

    advantages = [base_attack.advantage]
    dp_accuracies = []
    for epsilon in epsilons:
        noise = noise_multiplier_for_epsilon(epsilon, BATCH / MEMBERS,
                                             steps)
        model = fresh_model()
        result = train_dpsgd(
            model, members.features, members.targets.astype(int),
            DPSGDConfig(clip_norm=1.0, noise_multiplier=noise,
                        learning_rate=0.3, batch_size=BATCH, steps=steps),
            np.random.default_rng(3),
        )
        dp_attack = attack(model, members, nonmembers)
        accuracy = model.score(test.features, test.targets.astype(int))
        advantages.append(dp_attack.advantage)
        dp_accuracies.append(accuracy)
        rows.append([f"{result.epsilon:.2f}",
                     f"{dp_attack.advantage:.3f}",
                     f"{dp_attack.auc:.3f}", f"{accuracy:.3f}"])

    lines = format_table(
        ["epsilon", "attack advantage", "attack AUC", "test accuracy"],
        rows,
    )
    metrics = {
        "attack_advantage_nodp": higher_is_better(advantages[0],
                                                  threshold_pct=20.0),
        "max_dp_advantage": info(max(advantages[1:])),
        "baseline_accuracy": info(base_acc),
        "min_dp_accuracy": info(min(dp_accuracies)),
    }
    claims = {
        # The non-private model leaks substantially...
        "nodp_leaks": advantages[0] > 0.4,
        # ...and every DP arm cuts that leak by at least half.
        "dp_halves_leak": all(adv < advantages[0] / 2
                              for adv in advantages[1:]),
    }
    return {"metrics": metrics, "lines": lines, "claims": claims}


EXPERIMENT = Experiment("E11", "DP vs membership inference", run_bench)
