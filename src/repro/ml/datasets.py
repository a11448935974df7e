"""Synthetic IoT-flavored datasets and non-IID partitioners.

The paper's motivating workload is ML training over data produced by fleets
of smart devices.  Real traces are not shipped here, so these generators
produce the synthetic equivalents the gossip-learning literature evaluates
on: separable multi-class sensor data, noisy regressions, and a HAR-style
activity dataset with per-channel summary statistics.

The partitioners control the provider heterogeneity axis of E5/E6:
``split_iid`` (uniform), ``split_dirichlet`` (label-skewed, the standard
non-IID benchmark) and ``split_by_label`` (pathological single-label
providers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MLError


@dataclass(frozen=True)
class Dataset:
    """Features plus targets, with named feature columns for annotations."""

    features: np.ndarray
    targets: np.ndarray
    feature_names: tuple[str, ...] = ()
    name: str = "dataset"

    def __post_init__(self) -> None:
        if len(self.features) != len(self.targets):
            raise MLError("features and targets disagree on length")

    def __len__(self) -> int:
        return len(self.features)

    def subset(self, index: np.ndarray) -> "Dataset":
        """The rows selected by ``index``."""
        return Dataset(
            features=self.features[index],
            targets=self.targets[index],
            feature_names=self.feature_names,
            name=self.name,
        )


def train_test_split(dataset: Dataset, test_fraction: float,
                     rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Shuffle and split into train/test parts."""
    if not 0 < test_fraction < 1:
        raise MLError("test fraction must be in (0, 1)")
    n = len(dataset)
    order = rng.permutation(n)
    cut = int(round(n * (1 - test_fraction)))
    if cut == 0 or cut == n:
        raise MLError("split produced an empty side; adjust sizes")
    return dataset.subset(order[:cut]), dataset.subset(order[cut:])


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def make_blobs_classification(samples: int, features: int, classes: int,
                              rng: np.random.Generator,
                              separation: float = 2.0) -> Dataset:
    """Gaussian class clusters with controllable separation."""
    if classes < 2 or features < 1 or samples < classes:
        raise MLError("invalid blob generator sizes")
    centers = rng.normal(0.0, separation, (classes, features))
    labels = rng.integers(0, classes, samples)
    points = centers[labels] + rng.normal(0.0, 1.0, (samples, features))
    return Dataset(
        features=points,
        targets=labels.astype(int),
        feature_names=tuple(f"x{i}" for i in range(features)),
        name="blobs",
    )


def make_binary_classification(samples: int, features: int,
                               rng: np.random.Generator,
                               noise: float = 0.5) -> Dataset:
    """A linearly separable-ish binary problem with label noise.

    Labels follow a logistic model over a random ground-truth hyperplane, so
    logistic regression is well-specified — ideal for convergence studies.
    """
    true_weights = rng.normal(0.0, 1.0, features)
    points = rng.normal(0.0, 1.0, (samples, features))
    logits = points @ true_weights + rng.normal(0.0, noise, samples)
    labels = (logits > 0).astype(int)
    return Dataset(
        features=points,
        targets=labels,
        feature_names=tuple(f"x{i}" for i in range(features)),
        name="binary",
    )


def make_linear_regression(samples: int, features: int,
                           rng: np.random.Generator,
                           noise: float = 0.1) -> Dataset:
    """A noisy linear regression problem."""
    true_weights = rng.normal(0.0, 1.0, features)
    bias = float(rng.normal(0.0, 1.0))
    points = rng.normal(0.0, 1.0, (samples, features))
    values = points @ true_weights + bias + rng.normal(0.0, noise, samples)
    return Dataset(
        features=points,
        targets=values,
        feature_names=tuple(f"x{i}" for i in range(features)),
        name="regression",
    )


#: Activity classes of the HAR-style generator, in label order.
HAR_ACTIVITIES = ("sitting", "standing", "walking", "running", "cycling")

#: Per-activity (acc_mean, acc_var, gyro_mean, hr_mean) prototypes.
_HAR_PROTOTYPES = np.array([
    [0.05, 0.01, 0.02, 62.0],
    [0.08, 0.02, 0.03, 70.0],
    [0.45, 0.20, 0.25, 95.0],
    [0.95, 0.55, 0.50, 150.0],
    [0.70, 0.35, 0.65, 125.0],
])

_HAR_FEATURES = (
    "acc_mean", "acc_var", "gyro_mean", "heart_rate",
    "acc_mean_lag", "gyro_var",
)


#: Sensor-noise scale of :func:`make_iot_activity`.
HAR_NOISE = 0.15


def make_iot_activity(samples: int, rng: np.random.Generator) -> Dataset:
    """Human-activity-recognition-style data from wearable sensors.

    Six summary features per window (accelerometer / gyroscope statistics
    plus heart rate), five activity classes.  Feature scales are normalized
    so SGD behaves without per-experiment tuning.
    """
    labels = rng.integers(0, len(HAR_ACTIVITIES), samples)
    base = _HAR_PROTOTYPES[labels]
    noise = HAR_NOISE
    acc_mean = base[:, 0] + rng.normal(0, noise, samples)
    acc_var = np.abs(base[:, 1] + rng.normal(0, noise / 2, samples))
    gyro_mean = base[:, 2] + rng.normal(0, noise, samples)
    heart = base[:, 3] + rng.normal(0, 8.0, samples)
    acc_lag = acc_mean + rng.normal(0, noise / 2, samples)
    gyro_var = np.abs(gyro_mean * 0.5 + rng.normal(0, noise / 2, samples))
    features = np.column_stack([
        acc_mean, acc_var, gyro_mean, (heart - 100.0) / 40.0, acc_lag,
        gyro_var,
    ])
    return Dataset(
        features=features,
        targets=labels.astype(int),
        feature_names=_HAR_FEATURES,
        name="iot-har",
    )


def make_energy_consumption(samples: int, rng: np.random.Generator) -> Dataset:
    """Household power-draw regression from weather/time features.

    Consumption = base + heating (cold) + cooling (hot) + occupancy cycles
  + noise; features: outdoor temperature, hour-of-day sin/cos, weekend flag,
    household size.
    """
    temperature = rng.normal(12.0, 9.0, samples)
    hour = rng.uniform(0, 24, samples)
    weekend = rng.integers(0, 2, samples).astype(float)
    household = rng.integers(1, 6, samples).astype(float)
    heating = np.maximum(0.0, 16.0 - temperature) * 0.12
    cooling = np.maximum(0.0, temperature - 24.0) * 0.09
    occupancy = 0.4 * np.sin((hour - 7.0) / 24.0 * 2 * np.pi) + 0.3 * weekend
    draw = (0.5 + heating + cooling + occupancy + 0.15 * household
            + rng.normal(0.0, 0.1, samples))
    features = np.column_stack([
        temperature / 10.0,
        np.sin(hour / 24.0 * 2 * np.pi),
        np.cos(hour / 24.0 * 2 * np.pi),
        weekend,
        household / 3.0,
    ])
    return Dataset(
        features=features,
        targets=draw,
        feature_names=("temp", "hour_sin", "hour_cos", "weekend",
                       "household"),
        name="energy",
    )


# ---------------------------------------------------------------------------
# Partitioners
# ---------------------------------------------------------------------------


def split_iid(dataset: Dataset, parts: int,
              rng: np.random.Generator) -> list[Dataset]:
    """Uniformly random equal-ish partition into ``parts`` providers."""
    if parts < 1 or parts > len(dataset):
        raise MLError("invalid number of partitions")
    order = rng.permutation(len(dataset))
    return [dataset.subset(chunk) for chunk in np.array_split(order, parts)]


def split_dirichlet(dataset: Dataset, parts: int, alpha: float,
                    rng: np.random.Generator,
                    min_samples: int = 1) -> list[Dataset]:
    """Label-skewed partition: per-class Dirichlet(alpha) provider shares.

    ``alpha -> inf`` approaches IID; ``alpha -> 0`` approaches one-label
    providers.  Parts that come out below ``min_samples`` are topped up from
    the largest part so every provider has data.
    """
    if parts < 1:
        raise MLError("invalid number of partitions")
    if alpha <= 0:
        raise MLError("Dirichlet alpha must be positive")
    targets = np.asarray(dataset.targets)
    if targets.dtype.kind not in "iu":
        raise MLError("Dirichlet split needs integer class labels")
    assignments: list[list[int]] = [[] for _ in range(parts)]
    for label in np.unique(targets):
        index = np.flatnonzero(targets == label)
        rng.shuffle(index)
        shares = rng.dirichlet(np.full(parts, alpha))
        counts = np.floor(shares * len(index)).astype(int)
        # Distribute the rounding remainder to the largest shares.
        remainder = len(index) - counts.sum()
        for slot in np.argsort(-shares)[:remainder]:
            counts[slot] += 1
        start = 0
        for part, count in enumerate(counts):
            assignments[part].extend(index[start:start + count].tolist())
            start += count
    # Top up empty/starved parts from the largest one.
    for part in range(parts):
        while len(assignments[part]) < min_samples:
            donor = max(range(parts), key=lambda p: len(assignments[p]))
            if len(assignments[donor]) <= min_samples:
                raise MLError("not enough samples to satisfy min_samples")
            assignments[part].append(assignments[donor].pop())
    return [dataset.subset(np.array(sorted(rows))) for rows in assignments]


def split_by_label(dataset: Dataset, parts: int, labels_per_part: int,
                   rng: np.random.Generator) -> list[Dataset]:
    """Pathological non-IID: each provider sees only a few labels.

    Implements the classic "shards" scheme: the label-sorted data is cut
    into ``parts * labels_per_part`` shards and each provider draws
    ``labels_per_part`` shards.
    """
    targets = np.asarray(dataset.targets)
    if targets.dtype.kind not in "iu":
        raise MLError("label split needs integer class labels")
    num_shards = parts * labels_per_part
    if num_shards > len(dataset):
        raise MLError("more shards than samples")
    order = np.argsort(targets, kind="stable")
    shards = np.array_split(order, num_shards)
    shard_ids = rng.permutation(num_shards)
    out = []
    for part in range(parts):
        mine = shard_ids[part * labels_per_part:(part + 1) * labels_per_part]
        rows = np.concatenate([shards[s] for s in mine])
        out.append(dataset.subset(np.sort(rows)))
    return out


def label_distribution(dataset: Dataset, num_classes: int) -> np.ndarray:
    """Normalized label histogram (heterogeneity diagnostics)."""
    targets = np.asarray(dataset.targets, dtype=int)
    counts = np.bincount(targets, minlength=num_classes).astype(float)
    total = counts.sum()
    return counts / total if total else counts
