"""Workload leak-risk analysis (paper Section IV-D).

"In PDS2 the executors could statically or dynamically analyze each workload
to assess the risk of privacy leaks and apply the most suitable measures to
limit it."  This module is that analyzer: it scores a workload description
on the factors known to drive training-data leakage and recommends a
mitigation level.

Risk factors (each scored in [0, 1], weighted into a total):

* **capacity ratio** — parameters per training sample; overparameterized
  models memorize (Nasr et al.);
* **output richness** — full model released > predictions > aggregate
  statistic;
* **participant count** — few providers mean each contributes a large,
  identifiable share;
* **dp protection** — an attached DP guarantee discounts the risk by a
  factor derived from epsilon.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class OutputKind(enum.Enum):
    """What the consumer receives, ordered by information content."""

    AGGREGATE_STATISTIC = "aggregate"
    PREDICTIONS = "predictions"
    FULL_MODEL = "full_model"


class MitigationLevel(enum.Enum):
    """Recommended response, from none to refusing execution."""

    NONE = "none"
    CLIP_OUTPUTS = "clip_outputs"
    REQUIRE_DP = "require_dp"
    REJECT = "reject"


_OUTPUT_RICHNESS = {
    OutputKind.AGGREGATE_STATISTIC: 0.2,
    OutputKind.PREDICTIONS: 0.6,
    OutputKind.FULL_MODEL: 1.0,
}


@dataclass(frozen=True)
class WorkloadRiskProfile:
    """Static description of a workload, as visible to an executor."""

    model_parameters: int
    training_samples: int
    num_providers: int
    output_kind: OutputKind
    dp_epsilon: float | None = None  # None means "no DP attached"


@dataclass(frozen=True)
class RiskAssessment:
    """The analyzer's verdict."""

    risk_score: float                 # in [0, 1]
    capacity_score: float
    output_score: float
    concentration_score: float
    dp_discount: float
    mitigation: MitigationLevel


def _capacity_score(parameters: int, samples: int) -> float:
    """Memorization pressure: saturates as params/sample exceeds ~10."""
    if samples <= 0:
        return 1.0
    ratio = parameters / samples
    return min(1.0, ratio / 10.0)


def _concentration_score(num_providers: int) -> float:
    """Risk from few participants: 1 provider scores 1, 1000+ near 0."""
    if num_providers <= 1:
        return 1.0
    return min(1.0, 1.0 / math.log2(num_providers + 1))


def _dp_discount(epsilon: float | None) -> float:
    """Multiplier applied to the raw risk: eps=1 keeps ~33%, eps=8 ~73%."""
    if epsilon is None:
        return 1.0
    if epsilon <= 0:
        return 0.0
    return epsilon / (epsilon + 2.0)


#: Risk scores at which a workload must add DP noise / is refused.
REQUIRE_DP_THRESHOLD = 0.5
REJECT_THRESHOLD = 0.85


def assess_workload(profile: WorkloadRiskProfile) -> RiskAssessment:
    """Score a workload and recommend a mitigation level.

    The raw risk is the weighted mean of the three exposure factors, scaled
    by the DP discount.  Thresholds map the final score onto the mitigation
    ladder; they make an un-noised full-model release from a small crowd
    land in ``REQUIRE_DP`` and a single-provider memorizing model in
    ``REJECT``.
    """
    capacity = _capacity_score(profile.model_parameters,
                               profile.training_samples)
    output = _OUTPUT_RICHNESS[profile.output_kind]
    concentration = _concentration_score(profile.num_providers)
    raw = 0.4 * capacity + 0.35 * output + 0.25 * concentration
    discount = _dp_discount(profile.dp_epsilon)
    score = raw * discount
    if score >= REJECT_THRESHOLD:
        mitigation = MitigationLevel.REJECT
    elif score >= REQUIRE_DP_THRESHOLD:
        mitigation = MitigationLevel.REQUIRE_DP
    elif score >= REQUIRE_DP_THRESHOLD / 2:
        mitigation = MitigationLevel.CLIP_OUTPUTS
    else:
        mitigation = MitigationLevel.NONE
    return RiskAssessment(
        risk_score=score,
        capacity_score=capacity,
        output_score=output,
        concentration_score=concentration,
        dp_discount=discount,
        mitigation=mitigation,
    )
