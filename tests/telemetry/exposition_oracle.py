"""The exposition oracle: what ``to_prometheus`` is checked against.

:func:`parse_prometheus` is the inverse of
:func:`repro.telemetry.exporters.to_prometheus` over the subset it emits,
and :func:`registry_samples` flattens a registry into the shape the parser
returns, so ``parse(to_prometheus(r)) == registry_samples(r)`` is the
round-trip the exporter tests (and CI's ``telemetry-smoke``) assert.
"""

from __future__ import annotations

import math

from repro.errors import TelemetryError
from repro.telemetry.exporters import _format_value
from repro.telemetry.metrics import (
    QUANTILE_POINTS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def parse_prometheus(text: str) -> dict[tuple[str, tuple[tuple[str, str],
                                                         ...]], float]:
    """Parse exposition text back into ``{(name, sorted labels): value}``.

    Covers the subset ``to_prometheus`` emits (which is the subset the
    round-trip tests assert on); malformed lines raise
    :class:`TelemetryError`.
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            label_part, _, value_part = rest.rpartition("} ")
            if not _:
                raise TelemetryError(f"malformed sample line: {raw!r}")
            labels = {}
            # Our emitter never puts commas/braces inside label values, so a
            # simple split is a faithful inverse.
            for pair in label_part.split(","):
                key, _, quoted = pair.partition("=")
                if not quoted.startswith('"') or not quoted.endswith('"'):
                    raise TelemetryError(f"malformed label in: {raw!r}")
                value = (quoted[1:-1].replace('\\"', '"')
                         .replace("\\n", "\n").replace("\\\\", "\\"))
                labels[key] = value
        else:
            parts = line.rsplit(None, 1)
            if len(parts) != 2:
                raise TelemetryError(f"malformed sample line: {raw!r}")
            name, value_part = parts
            labels = {}
        value = math.inf if value_part == "+Inf" else float(value_part)
        samples[(name.strip(), tuple(sorted(labels.items())))] = value
    return samples


def registry_samples(registry: MetricsRegistry) -> dict[
        tuple[str, tuple[tuple[str, str], ...]], float]:
    """Flatten a registry into the same shape :func:`parse_prometheus`
    returns, for round-trip comparisons."""
    flat: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for metric in registry.collect():
        if isinstance(metric, (Counter, Gauge)):
            for labels, child in metric.children():
                flat[(metric.name, tuple(sorted(labels.items())))] = \
                    child.value
        elif isinstance(metric, Histogram):
            for labels, child in metric.children():
                cumulative = child.cumulative_counts()
                edges = [*metric.buckets, math.inf]
                for edge, count in zip(edges, cumulative):
                    key = dict(labels)
                    key["le"] = _format_value(edge)
                    flat[(f"{metric.name}_bucket",
                          tuple(sorted(key.items())))] = float(count)
                base = tuple(sorted(labels.items()))
                flat[(f"{metric.name}_sum", base)] = child.sum
                flat[(f"{metric.name}_count", base)] = float(child.count)
                if child.count:
                    quantiles = child.quantiles()
                    for _, qkey in QUANTILE_POINTS:
                        flat[(f"{metric.name}_{qkey}", base)] = \
                            quantiles[qkey]
    return flat
