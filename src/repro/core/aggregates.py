"""Non-ML workloads: privacy-preserving statistical aggregates.

The paper notes that "while PDS2 generalizes to many kinds of workloads, we
focus on ML training tasks".  This module supplies the other kind: a
consumer buys an *aggregate statistic* (mean, sum, histogram, quantile)
over provider data, computed inside enclaves with optional differential
privacy on the released value — the lowest-risk output class of the
Section IV-D analyzer.

:func:`aggregate_enclave_entry_point` has the same contract as the ML entry
point (runs inside a TEE over provisioned ``provider:*`` inputs), so
aggregate workloads ride the existing attestation/certificate machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.workload import decode_partition
from repro.errors import WorkloadSpecError


class AggregateKind(enum.Enum):
    """The statistic the consumer is buying."""

    MEAN = "mean"
    SUM = "sum"
    COUNT = "count"
    HISTOGRAM = "histogram"
    QUANTILE = "quantile"


@dataclass(frozen=True)
class AggregateSpec:
    """Specification of one aggregate query.

    ``field_index`` selects the feature column; histogram queries also take
    explicit ``bin_edges``; quantile queries take ``quantile`` in (0, 1).
    ``dp_epsilon``/``sensitivity`` switch on the Laplace mechanism over the
    released statistic.
    """

    kind: AggregateKind
    field_index: int = 0
    bin_edges: tuple[float, ...] = ()
    quantile: float = 0.5
    dp_epsilon: float | None = None
    sensitivity: float = 1.0

    def __post_init__(self) -> None:
        if self.field_index < 0:
            raise WorkloadSpecError("field index must be non-negative")
        if self.kind is AggregateKind.HISTOGRAM and len(self.bin_edges) < 2:
            raise WorkloadSpecError("histograms need at least two bin edges")
        if self.kind is AggregateKind.QUANTILE and not 0 < self.quantile < 1:
            raise WorkloadSpecError("quantile must be in (0, 1)")
        if self.dp_epsilon is not None and self.dp_epsilon <= 0:
            raise WorkloadSpecError("dp epsilon must be positive")
        if self.sensitivity <= 0:
            raise WorkloadSpecError("sensitivity must be positive")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "field_index": self.field_index,
            "bin_edges": list(self.bin_edges),
            "quantile": self.quantile,
            "dp_epsilon": self.dp_epsilon,
            "sensitivity": self.sensitivity,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AggregateSpec":
        return cls(
            kind=AggregateKind(data["kind"]),
            field_index=int(data["field_index"]),
            bin_edges=tuple(data.get("bin_edges", ())),
            quantile=float(data.get("quantile", 0.5)),
            dp_epsilon=data.get("dp_epsilon"),
            sensitivity=float(data.get("sensitivity", 1.0)),
        )


def _compute_statistic(values: np.ndarray, spec: AggregateSpec):
    if spec.kind is AggregateKind.MEAN:
        return float(values.mean())
    if spec.kind is AggregateKind.SUM:
        return float(values.sum())
    if spec.kind is AggregateKind.COUNT:
        return float(len(values))
    if spec.kind is AggregateKind.HISTOGRAM:
        counts, _ = np.histogram(values, bins=np.asarray(spec.bin_edges))
        return [float(c) for c in counts]
    return float(np.quantile(values, spec.quantile))


def _dp_noise_for(spec: AggregateSpec, shape_like,
                  rng: np.random.Generator):
    scale = spec.sensitivity / spec.dp_epsilon
    if isinstance(shape_like, list):
        return rng.laplace(0.0, scale, len(shape_like)).tolist()
    return float(rng.laplace(0.0, scale))


def aggregate_enclave_entry_point(inputs: dict[str, Any], agg_spec: dict,
                                  noise_seed: int) -> dict:
    """Compute one aggregate over all provisioned partitions, in-enclave.

    Returns the (optionally DP-noised) statistic, per-provider sample
    counts for rewarding, and the exact value kept *inside* the output dict
    only when no DP was requested — with DP the exact value never leaves
    the enclave.
    """
    spec = AggregateSpec.from_dict(agg_spec)
    all_values = []
    sample_counts: dict[str, int] = {}
    for label, blob in inputs.items():
        if not label.startswith("provider:"):
            continue
        features, _ = decode_partition(blob)
        if spec.field_index >= features.shape[1]:
            raise WorkloadSpecError(
                f"field index {spec.field_index} out of range for "
                f"{features.shape[1]} features"
            )
        column = features[:, spec.field_index]
        all_values.append(column)
        sample_counts[label.split(":", 1)[1]] = len(column)
    if not all_values:
        raise WorkloadSpecError("no provider data provisioned")
    values = np.concatenate(all_values)
    exact = _compute_statistic(values, spec)

    if spec.dp_epsilon is None:
        released = exact
        output_exact = exact
    else:
        from repro.utils.rng import rng_from_seed

        noise = _dp_noise_for(spec, exact, rng_from_seed(noise_seed))
        if isinstance(exact, list):
            released = [max(0.0, e + n) for e, n in zip(exact, noise)]
        else:
            released = exact + noise
        output_exact = None  # the exact value stays in the enclave
    return {
        "statistic": released,
        "exact": output_exact,
        "kind": spec.kind.value,
        "dp_epsilon": spec.dp_epsilon,
        "sample_counts": sample_counts,
        "total_samples": int(len(values)),
    }


def combine_aggregate_outputs(kind: AggregateKind,
                              outputs: list[dict]) -> Any:
    """Decentralized combination of per-executor aggregate outputs.

    SUM/COUNT add; MEAN is the sample-weighted mean of means; HISTOGRAM
    adds bin-wise; QUANTILE is combined as the sample-weighted mean of
    per-executor quantiles — an approximation (exact distributed quantiles
    need mergeable sketches), recorded as such in EXPERIMENTS.md.
    """
    if not outputs:
        raise WorkloadSpecError("no outputs to combine")
    weights = np.array([out["total_samples"] for out in outputs],
                       dtype=float)
    stats = [out["statistic"] for out in outputs]
    if kind in (AggregateKind.SUM, AggregateKind.COUNT):
        return float(sum(stats))
    if kind is AggregateKind.HISTOGRAM:
        stacked = np.array(stats, dtype=float)
        return [float(v) for v in stacked.sum(axis=0)]
    # MEAN and QUANTILE: sample-weighted average.
    values = np.array(stats, dtype=float)
    return float((weights / weights.sum()) @ values)


@dataclass
class AggregateResult:
    """Client-side view of an aggregate workload's output."""

    statistic: Any
    kind: AggregateKind
    dp_epsilon: float | None
    total_samples: int
    sample_counts: dict[str, int]

    @classmethod
    def from_output(cls, output: dict) -> "AggregateResult":
        return cls(
            statistic=output["statistic"],
            kind=AggregateKind(output["kind"]),
            dp_epsilon=output.get("dp_epsilon"),
            total_samples=int(output["total_samples"]),
            sample_counts=dict(output.get("sample_counts", {})),
        )
