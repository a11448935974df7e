"""Model-merge strategies for decentralized aggregation.

Gossip learning's core operation is merging a received model with the local
one.  The paper cites Ormándi et al., whose best variant weights merges by
model *age* (number of updates absorbed); FedAvg weights by sample count.
All three rules are implemented so the merge ablation (E14) can compare
them under identical schedules.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import MLError


class MergeStrategy(enum.Enum):
    """How two (or more) models combine into one."""

    AVERAGE = "average"              # plain parameter mean
    SAMPLE_WEIGHTED = "sample"       # weighted by training-set size
    AGE_WEIGHTED = "age"             # weighted by model age (gossip learning)


def merge_parameter_vectors(vectors: list[np.ndarray],
                            weights: list[float]) -> np.ndarray:
    """Convex combination of parameter vectors."""
    if len(vectors) != len(weights) or not vectors:
        raise MLError("need equal, non-empty vectors and weights")
    total = float(sum(weights))
    if total <= 0:
        raise MLError("merge weights must sum to a positive value")
    stacked = np.stack(vectors)
    coeffs = np.asarray(weights, dtype=float) / total
    return coeffs @ stacked
