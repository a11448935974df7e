"""The metrics registry: labeled counters, gauges, and fixed-bucket histograms.

This is the quantitative half of the telemetry layer (spans are the other
half, :mod:`repro.telemetry.tracing`).  The design follows the Prometheus
client-library model scaled down to our single-threaded simulation:

* a metric is created once (get-or-create on a registry, module-level
  handles in the instrumented subsystems) and updated with plain attribute
  arithmetic — no locks, no atomics, cheap enough for the chain/crypto hot
  paths;
* labels pick a *child* of a metric; children are cached by label-value
  tuple so steady-state updates are one dict lookup;
* a **cardinality guard** bounds the number of children per metric, so a
  mistaken high-cardinality label (an address, a hash) fails loudly instead
  of silently eating memory;
* ``Histogram`` uses fixed cumulative-at-export buckets, the exposition
  format Prometheus scrapers expect.

``REGISTRY`` is the process-wide default every subsystem reports into;
tests that need isolation construct their own :class:`MetricsRegistry`.
``REGISTRY.reset()`` zeroes values but keeps every metric and child object
alive, so module-level handles never dangle.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import TelemetryError

#: Ceiling on distinct label sets per metric (the cardinality guard).
MAX_LABEL_SETS = 1024

#: Quantile points estimated from histogram buckets and surfaced in the
#: exporters: (quantile, snapshot key).
QUANTILE_POINTS: tuple[tuple[float, str], ...] = (
    (0.5, "p50"), (0.95, "p95"), (0.99, "p99"),
)

#: Default latency buckets, in seconds (sub-millisecond crypto ops up to
#: multi-second end-to-end runs).
LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default gas buckets (one cheap call up to a full block).
GAS_BUCKETS: tuple[float, ...] = (
    1_000, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 5_000_000,
)

#: Default payload-size buckets, in bytes.
BYTES_BUCKETS: tuple[float, ...] = (
    64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304,
)


@dataclass(frozen=True)
class Sample:
    """One exported time-series point of a metric child."""

    labels: dict[str, str]
    value: float


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise TelemetryError(
            f"metric name {name!r} must be non-empty [a-zA-Z0-9_]"
        )


class _Metric:
    """Shared child management for every metric type.

    A child is keyed by its declared label values and nothing else: the
    registry stamps no ambient dimension (a session id, a trace id) onto
    children, because the cardinality guard's rule — no unbounded value as
    a label — applies to the platform's own labels too.  Per-session
    questions are answered by spans and events, which carry ``session_id``.
    """

    metric_type = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]):
        _validate_name(name)
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], object] = {}
        if not self.labelnames:
            # The unlabeled child exists eagerly so `metric.inc()` works
            # (and stays a plain dict hit).
            self._children[()] = self._new_child()

    def _new_child(self):
        raise NotImplementedError

    def labels(self, **labels: object):
        """The child for one label-value assignment (cached)."""
        if set(labels) != set(self.labelnames):
            raise TelemetryError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            if len(self._children) >= MAX_LABEL_SETS:
                raise TelemetryError(
                    f"metric {self.name!r} exceeded {MAX_LABEL_SETS} "
                    "label sets; a high-cardinality value (address, hash, "
                    "session id) is probably being used as a label"
                )
            child = self._new_child()
            self._children[key] = child
        return child

    def _default_child(self):
        if self.labelnames:
            raise TelemetryError(
                f"metric {self.name!r} is labeled {self.labelnames}; "
                "call .labels(...) first"
            )
        return self._children[()]

    def children(self) -> Iterator[tuple[dict[str, str], object]]:
        """Yield ``(labels, child)`` in creation order."""
        for declared, child in self._children.items():
            yield dict(zip(self.labelnames, declared)), child

    def reset(self) -> None:
        """Zero every child's value; children themselves stay alive."""
        for child in self._children.values():
            child._zero()  # type: ignore[attr-defined]


class _CounterChild:
    __slots__ = ("value", "exemplar")

    def __init__(self) -> None:
        self.value = 0.0
        #: Optional exemplar labels (e.g. ``{"trace_id": …}``) linking this
        #: series to the trace that last contributed to it.  Carried through
        #: snapshots and emitted as ``# EXEMPLAR`` exposition comments so
        #: a BENCH regression points at the distributed trace behind it.
        self.exemplar: Optional[dict[str, str]] = None

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError("counters only go up")
        self.value += amount

    def set_exemplar(self, **labels: object) -> None:
        self.exemplar = {name: str(value) for name, value in labels.items()}

    def _zero(self) -> None:
        self.value = 0.0
        self.exemplar = None


class Counter(_Metric):
    """A monotonically increasing count (events, gas, bytes)."""

    metric_type = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def set_exemplar(self, **labels: object) -> None:
        """Exemplar on the unlabeled child (labeled: use ``.labels(...)``)."""
        self._default_child().set_exemplar(**labels)

    def value(self, **labels: object) -> float:
        child = self.labels(**labels) if labels else self._default_child()
        return child.value

    def total(self) -> float:
        """Sum over every label set (quick non-zero checks)."""
        return sum(child.value for child in self._children.values())

    def samples(self) -> list[Sample]:
        return [Sample(labels, child.value)
                for labels, child in self.children()]


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def _zero(self) -> None:
        self.value = 0.0


class Gauge(_Metric):
    """A value that can go up and down (queue depths, cache sizes)."""

    metric_type = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def value(self, **labels: object) -> float:
        child = self.labels(**labels) if labels else self._default_child()
        return child.value

    def samples(self) -> list[Sample]:
        return [Sample(labels, child.value)
                for labels, child in self.children()]


class _HistogramChild:
    __slots__ = ("bucket_counts", "sum", "count", "_edges")

    def __init__(self, edges: tuple[float, ...]) -> None:
        self._edges = edges
        self.bucket_counts = [0] * (len(edges) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left gives le-semantics: a value exactly on an edge lands
        # in that edge's bucket, matching Prometheus's `le` convention.
        self.bucket_counts[bisect_left(self._edges, value)] += 1
        self.sum += value
        self.count += 1

    def observe_repeated(self, value: float, times: int) -> None:
        """Record ``value`` observed ``times`` times in one update.

        The aggregate path for vectorized kernels, which charge a whole
        round of identical-size messages at once instead of per message.
        """
        if times < 0:
            raise TelemetryError("observation count must be non-negative")
        if times == 0:
            return
        self.bucket_counts[bisect_left(self._edges, value)] += times
        self.sum += value * times
        self.count += times

    def cumulative_counts(self) -> list[int]:
        """Counts as Prometheus exports them: cumulative including +Inf."""
        out, running = [], 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile by linear interpolation inside the
        bucket holding the target rank (Prometheus ``histogram_quantile``
        semantics: first bucket interpolates from 0, observations landing
        in the +Inf overflow bucket clamp to the highest finite edge).
        """
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile {q!r} must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, in_bucket in enumerate(self.bucket_counts):
            seen += in_bucket
            if in_bucket and seen >= rank:
                if i == len(self._edges):
                    return self._edges[-1]  # +Inf overflow bucket
                lo = self._edges[i - 1] if i else 0.0
                hi = self._edges[i]
                return lo + (hi - lo) * (rank - (seen - in_bucket)) / in_bucket
        return self._edges[-1]

    def quantiles(self) -> dict[str, float]:
        """The standard export points (:data:`QUANTILE_POINTS`)."""
        return {key: self.quantile(q) for q, key in QUANTILE_POINTS}

    def _zero(self) -> None:
        self.bucket_counts = [0] * len(self.bucket_counts)
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """A fixed-bucket distribution (latencies, gas per tx, message sizes)."""

    metric_type = "histogram"

    def __init__(self, name: str, help: str, buckets: Sequence[float],
                 labelnames: Sequence[str]):
        edges = tuple(float(b) for b in buckets)
        if not edges or list(edges) != sorted(set(edges)):
            raise TelemetryError(
                "histogram buckets must be non-empty, sorted, and distinct"
            )
        self.buckets = edges
        super().__init__(name, help, labelnames=labelnames)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def observe_repeated(self, value: float, times: int) -> None:
        self._default_child().observe_repeated(value, times)

    def child(self, **labels: object) -> _HistogramChild:
        return (self.labels(**labels) if labels
                else self._default_child())  # type: ignore[return-value]


class MetricsRegistry:
    """Get-or-create home for metrics, with conflict detection and export.

    Creation is idempotent: asking for an existing name returns the
    existing metric, but only when the type, label names, and (for
    histograms) buckets match — a mismatch is a programming error and
    raises :class:`TelemetryError` instead of silently splitting a series.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    # -- creation ------------------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise TelemetryError(
                    f"metric {name!r} already registered as "
                    f"{existing.metric_type}, not {cls.metric_type}"
                )
            if existing.labelnames != tuple(kwargs.get("labelnames", ())):
                raise TelemetryError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.labelnames}"
                )
            if (cls is Histogram and "buckets" in kwargs
                    and existing.buckets != tuple(
                        float(b) for b in kwargs["buckets"])):
                raise TelemetryError(
                    f"histogram {name!r} already registered with different "
                    "buckets"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help,
                                   labelnames=labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames=labelnames)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = LATENCY_BUCKETS_S,
                  labelnames: Sequence[str] = ()) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets,
                                   labelnames=labelnames)

    # -- access --------------------------------------------------------------

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def collect(self) -> Iterable[_Metric]:
        """Metrics in registration order (the export order)."""
        return tuple(self._metrics.values())

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def reset(self) -> None:
        """Zero every metric; registrations and handles stay valid."""
        for metric in self._metrics.values():
            metric.reset()

    # -- snapshot round-trip ---------------------------------------------------

    #: The format written; the reader also accepts the /1 documents older
    #: ``benchmarks/results`` sidecars carry.
    SNAPSHOT_FORMAT = "pds2-metrics-snapshot/2"
    ACCEPTED_SNAPSHOT_FORMATS = ("pds2-metrics-snapshot/1",
                                 "pds2-metrics-snapshot/2")

    def snapshot(self) -> dict:
        """JSON-serializable dump of every metric and child value;
        histogram samples carry interpolated ``quantiles`` alongside the
        raw buckets."""
        out = []
        for metric in self._metrics.values():
            entry: dict = {
                "name": metric.name,
                "type": metric.metric_type,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
            }
            samples: list[dict] = []
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                for labels, child in metric.children():
                    samples.append({
                        "labels": labels,
                        "bucket_counts": list(child.bucket_counts),
                        "sum": child.sum, "count": child.count,
                        "quantiles": child.quantiles(),
                    })
            else:
                for labels, child in metric.children():
                    sample = {"labels": labels, "value": child.value}
                    if getattr(child, "exemplar", None):
                        sample["exemplar"] = dict(child.exemplar)
                    samples.append(sample)
            entry["samples"] = samples
            out.append(entry)
        return {"format": self.SNAPSHOT_FORMAT, "metrics": out}

    @classmethod
    def from_snapshot(cls, snap: Mapping) -> "MetricsRegistry":
        """Rebuild a registry from a persisted snapshot (either format).

        Several samples of one metric may name the same declared labels: a
        /2 document written before the ambient ``context`` dimension was
        removed has one per session.  They are folded into one child —
        counter values and histogram buckets/sum/count add, a gauge takes
        the last sample in file order — so old sidecars still print
        totals.  Anything malformed raises :class:`TelemetryError`.
        """
        if (not isinstance(snap, Mapping)
                or snap.get("format") not in cls.ACCEPTED_SNAPSHOT_FORMATS):
            raise TelemetryError("not a pds2 metrics snapshot")
        registry = cls()
        try:
            for entry in snap["metrics"]:
                registry._load_entry(entry)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise TelemetryError(
                f"malformed metrics snapshot: {exc!r}") from exc
        return registry

    def _load_entry(self, entry: Mapping) -> None:
        kind = entry.get("type")
        name, help = entry["name"], entry.get("help", "")
        labelnames = tuple(entry.get("labelnames", ()))
        if kind == "counter":
            metric = self.counter(name, help, labelnames=labelnames)
        elif kind == "gauge":
            metric = self.gauge(name, help, labelnames=labelnames)
        elif kind == "histogram":
            metric = self.histogram(name, help, buckets=entry["buckets"],
                                    labelnames=labelnames)
        else:
            raise TelemetryError(f"unknown metric type {kind!r}")
        for sample in entry["samples"]:
            child = metric.labels(**sample["labels"])
            if kind == "histogram":
                counts = [int(c) for c in sample["bucket_counts"]]
                if len(counts) != len(child.bucket_counts):
                    raise TelemetryError(
                        f"histogram {name!r} sample has {len(counts)} "
                        f"bucket counts, not {len(child.bucket_counts)}"
                    )
                child.bucket_counts = [
                    a + b for a, b in zip(child.bucket_counts, counts)]
                child.sum += float(sample["sum"])
                child.count += int(sample["count"])
            elif kind == "gauge":
                child.value = float(sample["value"])
            else:
                child.value += float(sample["value"])
                if sample.get("exemplar"):
                    child.exemplar = dict(sample["exemplar"])


#: The process-wide default registry every instrumented subsystem uses.
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "",
            labelnames: Sequence[str] = ()) -> Counter:
    """Get-or-create a counter on the default registry."""
    return REGISTRY.counter(name, help, labelnames=labelnames)


def gauge(name: str, help: str = "",
          labelnames: Sequence[str] = ()) -> Gauge:
    """Get-or-create a gauge on the default registry."""
    return REGISTRY.gauge(name, help, labelnames=labelnames)


def histogram(name: str, help: str = "",
              buckets: Sequence[float] = LATENCY_BUCKETS_S,
              labelnames: Sequence[str] = ()) -> Histogram:
    """Get-or-create a histogram on the default registry."""
    return REGISTRY.histogram(name, help, buckets=buckets,
                              labelnames=labelnames)


def annotate_exemplar(child: object) -> None:
    """Exemplar-stamp a counter child from the ambient trace context.

    Picks up the distributed ``trace_id`` the control plane puts in the
    tracer's ambient context while a batch job runs, plus any
    ``fault_kind`` annotation the fault injector stamped on an open span —
    so chain/mempool counters join the exemplar pipeline the batch
    counters already feed.  No-op (and allocation-free) when neither is
    present, which is the common hot-path case.
    """
    from repro.telemetry.tracing import tracer

    t = tracer()
    trace_id = t.context.get("trace_id")
    fault_kind = t.current_attribute("fault_kind")
    if trace_id is None and fault_kind is None:
        return
    labels: dict[str, object] = {}
    if trace_id is not None:
        labels["trace_id"] = trace_id
    if fault_kind is not None:
        labels["fault_kind"] = fault_kind
    child.set_exemplar(**labels)  # type: ignore[attr-defined]
