"""Privacy attacks: measuring what actually leaks from trained models.

Section IV-D cites Nasr et al.'s membership-inference analyses as evidence
that model outputs leak training data.  To quantify leakage (and the benefit
of DP-SGD) this module implements the standard loss-threshold membership
inference attack of Yeom et al.: members tend to have lower loss than
non-members, so an attacker thresholds the per-example loss.

Reported metrics: attack AUC, best-threshold accuracy and the
membership *advantage* ``TPR - FPR`` (0 = no leak, 1 = total leak).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PrivacyError
from repro.ml.models import Model


@dataclass(frozen=True)
class MembershipInferenceResult:
    """Outcome of one membership-inference evaluation."""

    auc: float
    advantage: float
    attack_accuracy: float
    member_mean_loss: float
    nonmember_mean_loss: float


def _per_example_losses(model: Model, features: np.ndarray,
                        targets: np.ndarray) -> np.ndarray:
    return np.array([
        model.loss(features[i:i + 1], targets[i:i + 1])
        for i in range(len(features))
    ])


def _auc_from_scores(positive: np.ndarray, negative: np.ndarray) -> float:
    """Rank-based AUC (probability a positive outranks a negative)."""
    scores = np.concatenate([positive, negative])
    labels = np.concatenate([
        np.ones(len(positive)), np.zeros(len(negative))
    ])
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    ranks[order] = np.arange(1, len(scores) + 1)
    # Average ranks over ties for an unbiased AUC.
    for value in np.unique(scores):
        mask = scores == value
        if mask.sum() > 1:
            ranks[mask] = ranks[mask].mean()
    positive_rank_sum = ranks[labels == 1].sum()
    n_pos, n_neg = len(positive), len(negative)
    return float(
        (positive_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    )


def membership_inference_attack(model: Model, member_features: np.ndarray,
                                member_targets: np.ndarray,
                                nonmember_features: np.ndarray,
                                nonmember_targets: np.ndarray,
                                ) -> MembershipInferenceResult:
    """Run the loss-threshold attack against ``model``.

    The attack scores each example by ``-loss`` (lower loss = more likely a
    member) and sweeps all thresholds for the best accuracy and the maximum
    ``TPR - FPR`` advantage.
    """
    if len(member_features) == 0 or len(nonmember_features) == 0:
        raise PrivacyError("attack needs non-empty member and non-member sets")
    member_losses = _per_example_losses(model, member_features,
                                        member_targets)
    nonmember_losses = _per_example_losses(model, nonmember_features,
                                           nonmember_targets)
    # Members should score HIGHER under -loss.
    auc = _auc_from_scores(-member_losses, -nonmember_losses)

    thresholds = np.unique(np.concatenate([member_losses,
                                           nonmember_losses]))
    best_advantage = 0.0
    best_accuracy = 0.5
    n_members = len(member_losses)
    n_nonmembers = len(nonmember_losses)
    for threshold in thresholds:
        tpr = float(np.mean(member_losses <= threshold))
        fpr = float(np.mean(nonmember_losses <= threshold))
        advantage = tpr - fpr
        accuracy = (tpr * n_members + (1 - fpr) * n_nonmembers) / (
            n_members + n_nonmembers
        )
        if advantage > best_advantage:
            best_advantage = advantage
        if accuracy > best_accuracy:
            best_accuracy = accuracy
    return MembershipInferenceResult(
        auc=auc,
        advantage=best_advantage,
        attack_accuracy=best_accuracy,
        member_mean_loss=float(member_losses.mean()),
        nonmember_mean_loss=float(nonmember_losses.mean()),
    )
