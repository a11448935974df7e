"""Workload specifications (paper Section II-C, "data consumers").

A :class:`WorkloadSpec` is the binding contract a consumer submits: data
preconditions (a semantic requirement), the reward offered, the workload
definition itself (model family + training schedule), minimum participation
conditions, and the privacy/reward policies.  Its canonical hash is recorded
on-chain; the actual definition travels off-chain to executors.

``enclave_entry_point`` is the code that runs inside executor TEEs: it
deserializes provider rows, trains the specified model, and returns the
parameters — all within enclave-private memory.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.crypto.hashing import hash_object
from repro.errors import WorkloadSpecError
from repro.ml.models import (
    LinearRegressionModel,
    LogisticRegressionModel,
    MLPClassifier,
    Model,
    SoftmaxRegressionModel,
)
from repro.storage.semantic import Requirement
from repro.utils.serialization import CANONICAL_JSON_SETTINGS


class RewardScheme(enum.Enum):
    """How provider payout weights are computed."""

    BY_SAMPLES = "by_samples"       # proportional to certified item counts
    SHAPLEY = "shapley"             # truncated-MC Shapley inside the enclave


@dataclass(frozen=True)
class ModelSpec:
    """The model family and shape a workload trains."""

    family: str                      # linear | logistic | softmax | mlp
    num_features: int
    num_classes: int = 2
    hidden_units: int = 16
    l2: float = 0.0

    _FAMILIES = ("linear", "logistic", "softmax", "mlp")

    def __post_init__(self) -> None:
        if self.family not in self._FAMILIES:
            raise WorkloadSpecError(f"unknown model family {self.family!r}")
        if self.num_features < 1:
            raise WorkloadSpecError("model needs at least one feature")

    def build(self, seed: int = 0) -> Model:
        """Instantiate the model (deterministic initialization)."""
        if self.family == "linear":
            return LinearRegressionModel(self.num_features, l2=self.l2)
        if self.family == "logistic":
            return LogisticRegressionModel(self.num_features, l2=self.l2)
        if self.family == "softmax":
            return SoftmaxRegressionModel(self.num_features,
                                          self.num_classes, l2=self.l2)
        return MLPClassifier(
            self.num_features, self.hidden_units, self.num_classes,
            l2=self.l2, init_rng=np.random.default_rng(seed),
        )

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "num_features": self.num_features,
            "num_classes": self.num_classes,
            "hidden_units": self.hidden_units,
            "l2": self.l2,
        }


@dataclass(frozen=True)
class TrainingSpec:
    """The training schedule executors must follow."""

    steps: int = 200
    learning_rate: float = 0.2
    batch_size: int = 32
    aggregation_rounds: int = 4      # executor-to-executor averaging rounds
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1 or self.batch_size < 1:
            raise WorkloadSpecError("steps and batch size must be >= 1")
        if self.aggregation_rounds < 0:
            raise WorkloadSpecError("aggregation rounds must be >= 0")

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "aggregation_rounds": self.aggregation_rounds,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class WorkloadSpec:
    """The complete consumer contract for one workload."""

    workload_id: str
    requirement: Requirement
    model: ModelSpec
    training: TrainingSpec = field(default_factory=TrainingSpec)
    reward_pool: int = 100_000
    min_providers: int = 1
    min_samples: int = 1
    infra_share_bps: int = 1000
    required_confirmations: int = 1
    reward_scheme: RewardScheme = RewardScheme.BY_SAMPLES
    dp_epsilon: float | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.reward_pool < 0:
            raise WorkloadSpecError("reward pool must be non-negative")
        if self.min_providers < 1 or self.min_samples < 1:
            raise WorkloadSpecError("participation minimums must be >= 1")
        if not 0 <= self.infra_share_bps < 10_000:
            raise WorkloadSpecError("infra share out of range")
        if self.required_confirmations < 1:
            raise WorkloadSpecError("need at least one confirmation")
        if self.dp_epsilon is not None and self.dp_epsilon <= 0:
            raise WorkloadSpecError("dp epsilon must be positive")

    def to_dict(self) -> dict:
        return {
            "workload_id": self.workload_id,
            "requirement": self.requirement.to_dict(),
            "model": self.model.to_dict(),
            "training": self.training.to_dict(),
            "reward_pool": self.reward_pool,
            "min_providers": self.min_providers,
            "min_samples": self.min_samples,
            "infra_share_bps": self.infra_share_bps,
            "required_confirmations": self.required_confirmations,
            "reward_scheme": self.reward_scheme.value,
            "dp_epsilon": self.dp_epsilon,
            "description": self.description,
        }

    @property
    def spec_hash(self) -> str:
        """Canonical hex hash recorded on-chain at deployment."""
        return hash_object(self.to_dict()).hex()


# ---------------------------------------------------------------------------
# Row serialization: how provider datasets travel to enclaves
# ---------------------------------------------------------------------------


#: A row is string keys, floats and one list, so the recursive type walk of
#: ``canonical_json`` has nothing to convert and the bare encoder emits the
#: same bytes; ``allow_nan=False`` is its NaN/inf rejection.
_ROW_ENCODER = json.JSONEncoder(**CANONICAL_JSON_SETTINGS, allow_nan=False)


def serialize_partition(features: np.ndarray,
                        targets: np.ndarray) -> list[bytes]:
    """Serialize a provider's partition row by row (Merkle leaves).

    Each row is the canonical JSON of ``{"x": [floats], "y": float}``; the
    whole partition as one canonical document is :func:`join_rows` of the
    result.
    """
    count = len(features)
    if count == 0:
        return []
    xs = np.asarray(features, dtype=float).reshape(count, -1).tolist()
    ys = np.asarray(targets, dtype=float).reshape(-1).tolist()
    encode = _ROW_ENCODER.encode
    return [encode({"x": x, "y": y}).encode("ascii")
            for x, y in zip(xs, ys, strict=True)]


def join_rows(rows: list[bytes]) -> bytes:
    """The canonical JSON list whose items are the encoded ``rows``.

    Canonical JSON puts nothing but a comma between list items, so joining
    the items' encodings is the encoding of the list.
    """
    return b"[" + b",".join(rows) + b"]"


# ---------------------------------------------------------------------------
# The enclave entry point (its source is the workload code measurement)
# ---------------------------------------------------------------------------


def enclave_entry_point(inputs: dict[str, Any], spec_dict: dict,
                        training_seed: int) -> dict:
    """Train the specified model on all provisioned partitions.

    Runs *inside* a TEE: ``inputs`` maps ``provider:<address>`` labels to
    serialized row blobs; the function deserializes, concatenates, trains
    per the spec, and returns the parameters plus per-provider sample
    counts.  Nothing here can reach the host except the return value.

    Two spec-controlled variants run entirely inside the enclave:

    * when ``dp_epsilon`` is set, training uses DP-SGD calibrated (via the
      RDP accountant) to that epsilon — the Section IV-D mitigation;
    * when ``reward_scheme`` is ``"shapley"``, the enclave also computes
      truncated-Monte-Carlo Shapley fractions over the provider partitions,
      so reward weighting never exposes per-provider data.
    """
    import numpy as _np

    from repro.utils.rng import derive_rng, rng_from_seed
    from repro.utils.serialization import from_canonical_json

    partitions: dict[str, tuple] = {}
    for label, blob in inputs.items():
        if not label.startswith("provider:"):
            continue
        rows = from_canonical_json(blob)
        features = _np.asarray([row["x"] for row in rows], dtype=float)
        targets = _np.asarray([row["y"] for row in rows])
        partitions[label.split(":", 1)[1]] = (features, targets)
    if not partitions:
        raise WorkloadSpecError("no provider data provisioned")

    model_spec = ModelSpec(**spec_dict["model"])
    training = TrainingSpec(**spec_dict["training"])
    model = model_spec.build(seed=training.seed)
    classification = model_spec.family in ("softmax", "mlp", "logistic")

    all_features = _np.concatenate([p[0] for p in partitions.values()])
    all_targets = _np.concatenate([p[1] for p in partitions.values()])
    if classification:
        all_targets = all_targets.astype(int)

    dp_epsilon = spec_dict.get("dp_epsilon")
    achieved_epsilon = None
    if dp_epsilon is not None:
        from repro.privacy.dpsgd import (
            DPSGDConfig,
            noise_multiplier_for_epsilon,
            train_dpsgd,
        )

        batch = min(training.batch_size, len(all_features))
        noise = noise_multiplier_for_epsilon(
            float(dp_epsilon), batch / len(all_features), training.steps
        )
        dp_result = train_dpsgd(
            model, all_features, all_targets,
            DPSGDConfig(
                clip_norm=1.0, noise_multiplier=noise,
                learning_rate=training.learning_rate,
                batch_size=training.batch_size, steps=training.steps,
            ),
            rng_from_seed(training_seed),
        )
        achieved_epsilon = dp_result.epsilon
    else:
        model.train_steps(
            all_features, all_targets,
            steps=training.steps,
            learning_rate=training.learning_rate,
            batch_size=training.batch_size,
            rng=rng_from_seed(training_seed),
        )

    output = {
        "params": [float(v) for v in model.params],
        "sample_counts": {
            provider: int(len(partitions[provider][0]))
            for provider in sorted(partitions)
        },
        "trained_samples": int(len(all_features)),
        "achieved_epsilon": achieved_epsilon,
    }

    if spec_dict.get("reward_scheme") == "shapley" and len(partitions) > 1:
        output["shapley_fractions"] = _enclave_shapley_fractions(
            partitions, model_spec, training, training_seed, classification
        )
    return output


def _enclave_shapley_fractions(partitions: dict, model_spec: "ModelSpec",
                               training: "TrainingSpec", training_seed: int,
                               classification: bool) -> dict[str, float]:
    """TMC-Shapley payout fractions over provider partitions (in-enclave).

    A stratified holdout carved from the pooled data serves as validation;
    coalitions train shortened schedules (a quarter of the spec's steps) to
    keep valuation affordable, which preserves ranking even if absolute
    scores differ.
    """
    import numpy as _np

    from repro.ml.datasets import Dataset
    from repro.rewards.shapley import (
        DataValuationTask,
        normalize_to_payouts,
        truncated_monte_carlo_shapley,
    )
    from repro.utils.rng import derive_rng

    providers = sorted(partitions)
    holdout_rng = derive_rng(training_seed, "enclave-shapley-holdout")
    train_parts: list[Dataset] = []
    val_features = []
    val_targets = []
    for provider in providers:
        features, targets = partitions[provider]
        if classification:
            targets = targets.astype(int)
        n = len(features)
        order = holdout_rng.permutation(n)
        val_count = max(1, n // 5) if n > 1 else 0
        val_index, train_index = order[:val_count], order[val_count:]
        if len(train_index) == 0:
            train_index = val_index
        train_parts.append(Dataset(features=features[train_index],
                                   targets=targets[train_index]))
        if val_count:
            val_features.append(features[val_index])
            val_targets.append(targets[val_index])
    validation = Dataset(
        features=_np.concatenate(val_features),
        targets=_np.concatenate(val_targets),
    )
    task = DataValuationTask(
        model_factory=lambda: model_spec.build(seed=training.seed),
        provider_datasets=train_parts,
        validation=validation,
        train_steps=max(10, training.steps // 4),
        learning_rate=training.learning_rate,
        batch_size=training.batch_size,
        seed=training_seed,
    )
    estimates = truncated_monte_carlo_shapley(
        len(providers), task, permutations=2 * len(providers),
        rng=derive_rng(training_seed, "enclave-shapley-mc"),
    )
    fractions = normalize_to_payouts(estimates)
    return {
        provider: float(fraction)
        for provider, fraction in zip(providers, fractions)
    }
