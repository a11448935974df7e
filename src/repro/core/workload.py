"""Workload specifications (paper Section II-C, "data consumers").

A :class:`WorkloadSpec` is the binding contract a consumer submits: data
preconditions (a semantic requirement), the reward offered, the workload
definition itself (model family + training schedule), minimum participation
conditions, and the privacy/reward policies.  Its canonical hash is recorded
on-chain; the actual definition travels off-chain to executors.

``enclave_entry_point`` is the code that runs inside executor TEEs: it
decodes provider rows, trains the specified model, and returns the
parameters — all within enclave-private memory.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.crypto.hashing import hash_object
from repro.errors import WorkloadSpecError
from repro.ml.models import (
    LinearRegressionModel,
    MLPClassifier,
    Model,
    SoftmaxRegressionModel,
)
from repro.storage.semantic import Requirement


@dataclass(frozen=True)
class ModelSpec:
    """The model family and shape a workload trains."""

    family: str                      # linear | softmax | mlp
    num_features: int
    num_classes: int = 2
    hidden_units: int = 16
    l2: float = 0.0

    _FAMILIES = ("linear", "softmax", "mlp")

    def __post_init__(self) -> None:
        if self.family not in self._FAMILIES:
            raise WorkloadSpecError(f"unknown model family {self.family!r}")
        if self.num_features < 1:
            raise WorkloadSpecError("model needs at least one feature")

    def build(self, seed: int = 0) -> Model:
        """Instantiate the model (deterministic initialization)."""
        if self.family == "linear":
            return LinearRegressionModel(self.num_features, l2=self.l2)
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
            # Payout weights are proportional to certified item counts; the
            # key stays so the hashed spec keeps its bytes.
            "reward_scheme": "by_samples",
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

#: A partition document's header: the row width ``w``, a little-endian uint32.
_HEADER = struct.Struct("<I")


def serialize_partition(features: np.ndarray,
                        targets: np.ndarray) -> list[bytes]:
    """Serialize a provider's partition row by row (Merkle leaves).

    A row is its features followed by its target, all little-endian float64
    (``8·w`` bytes for ``w - 1`` features); the whole partition as one
    document is :func:`join_rows` of the result.  A non-finite value raises
    ``ValueError``.
    """
    count = len(features)
    if count == 0:
        return []
    xs = np.asarray(features, dtype=float).reshape(count, -1)
    ys = np.asarray(targets, dtype=float).reshape(-1)
    table = np.column_stack((xs, ys)).astype("<f8", copy=False)
    if not np.isfinite(table).all():
        raise ValueError("partition values must be finite")
    blob, size = table.tobytes(), table.shape[1] * 8
    return [blob[start:start + size] for start in range(0, len(blob), size)]


def join_rows(rows: list[bytes]) -> bytes:
    """The partition document: the row width, then the ``rows`` in order."""
    width = len(rows[0]) // 8 if rows else 0
    return _HEADER.pack(width) + b"".join(rows)


def decode_partition(blob: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The features ``(n, w - 1)`` and targets ``(n,)`` of a partition
    document (:func:`join_rows`), as read-only float64 views of ``blob``.

    Raises :class:`WorkloadSpecError` unless ``blob`` is a header and one or
    more whole rows of two or more finite values.
    """
    width = _HEADER.unpack_from(blob)[0] if len(blob) >= _HEADER.size else 0
    body = len(blob) - _HEADER.size
    if width < 2 or body <= 0 or body % (8 * width):
        raise WorkloadSpecError(f"not a partition document: {len(blob)} "
                                f"bytes, row width {width}")
    table = np.frombuffer(blob, dtype="<f8",
                          offset=_HEADER.size).reshape(-1, width)
    if not np.isfinite(table).all():
        raise WorkloadSpecError("partition holds a non-finite value")
    return table[:, :-1], table[:, -1]


# ---------------------------------------------------------------------------
# The enclave entry point (its code object is the workload code measurement)
# ---------------------------------------------------------------------------


def enclave_entry_point(inputs: dict[str, Any], spec_dict: dict,
                        training_seed: int) -> dict:
    """Train the specified model on all provisioned partitions.

    Runs *inside* a TEE: ``inputs`` maps ``provider:<address>`` labels to
    partition documents; the function decodes, concatenates, trains per the
    spec, and returns the parameters plus per-provider sample counts.
    Nothing here can reach the host except the return value.

    With ``dp_epsilon`` set, training is DP-SGD calibrated (via the RDP
    accountant) to that epsilon: the Section IV-D mitigation.
    """
    import numpy as _np

    from repro.utils.rng import rng_from_seed

    partitions = {label.split(":", 1)[1]: decode_partition(blob)
                  for label, blob in inputs.items()
                  if label.startswith("provider:")}
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

    return {
        "params": [float(v) for v in model.params],
        "sample_counts": {
            provider: int(len(partitions[provider][0]))
            for provider in sorted(partitions)
        },
        "trained_samples": int(len(all_features)),
        "achieved_epsilon": achieved_epsilon,
    }
