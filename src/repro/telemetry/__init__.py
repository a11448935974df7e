"""Telemetry: the metrics registry, span tracing, and exporters.

The paper defers feasibility numbers to "an implementation that can be used
to test the feasibility of the platform" (Section VI); this package is the
instrument panel that makes those numbers come from the system itself
instead of ad-hoc timers.  Three pieces:

* :mod:`repro.telemetry.metrics` — labeled Counters, Gauges, and
  fixed-bucket Histograms on a :class:`MetricsRegistry` (``REGISTRY`` is
  the process default every subsystem reports into);
* :mod:`repro.telemetry.tracing` — a :class:`Tracer` producing
  hierarchical :class:`Span` objects over both the wall clock
  (``perf_counter``) and the simulation clock, propagated through the nine
  lifecycle phases and down into chain mining, ECDSA batches, enclave
  runs, gossip rounds, and storage calls;
* :mod:`repro.telemetry.exporters` — Prometheus text exposition, JSON
  snapshots (with a faithful parser for round-trip tests), and a
  flame-style span-tree renderer.

Metric naming scheme: ``pds2_<subsystem>_<quantity>[_<unit>][_total]``
with bounded label sets (a cardinality guard trips on address-like
labels).  Span naming: ``<subsystem>.<operation>`` dotted paths;
lifecycle phases are ``lifecycle.phase.<name>`` under a
``lifecycle.session`` root.
"""

from repro.telemetry.distributed import (
    LOST_WORKER_SPAN,
    AssembledTrace,
    CoordinatorSpanExporter,
    CriticalPath,
    JobSpanExporter,
    TraceContext,
    assemble_trace,
    batch_trace_context,
    critical_path,
    derive_span_id,
    derive_trace_id,
    read_span_records,
    render_critical_path,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.telemetry.exporters import (
    profile_snapshot,
    profile_to_collapsed,
    registry_from_events,
    render_profile_tree,
    render_span_tree,
    snapshot,
    spans_from_events,
    to_prometheus,
)
from repro.telemetry.metrics import (
    BYTES_BUCKETS,
    GAS_BUCKETS,
    LATENCY_BUCKETS_S,
    MAX_LABEL_SETS,
    QUANTILE_POINTS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
)
from repro.telemetry.profiler import (
    Profile,
    Profiler,
    active_profiler,
    profiled,
    profiled_function,
)
from repro.telemetry.tracing import (
    TRACER,
    Span,
    Tracer,
    build_span_tree,
    tracer,
)


def reset() -> None:
    """Zero the default registry and clear the default tracer.

    Benchmark and test isolation helper: metric/child handles held by
    instrumented modules stay valid (values are zeroed in place).
    """
    REGISTRY.reset()
    TRACER.reset()


__all__ = [
    "BYTES_BUCKETS",
    "GAS_BUCKETS",
    "LATENCY_BUCKETS_S",
    "LOST_WORKER_SPAN",
    "MAX_LABEL_SETS",
    "QUANTILE_POINTS",
    "REGISTRY",
    "TRACER",
    "AssembledTrace",
    "CoordinatorSpanExporter",
    "Counter",
    "CriticalPath",
    "Gauge",
    "Histogram",
    "JobSpanExporter",
    "MetricsRegistry",
    "Profile",
    "Profiler",
    "Span",
    "TraceContext",
    "Tracer",
    "active_profiler",
    "assemble_trace",
    "batch_trace_context",
    "build_span_tree",
    "counter",
    "critical_path",
    "derive_span_id",
    "derive_trace_id",
    "gauge",
    "histogram",
    "profile_snapshot",
    "profile_to_collapsed",
    "profiled",
    "profiled_function",
    "read_span_records",
    "registry_from_events",
    "render_critical_path",
    "render_profile_tree",
    "render_span_tree",
    "reset",
    "snapshot",
    "spans_from_events",
    "to_chrome_trace",
    "to_prometheus",
    "tracer",
    "validate_chrome_trace",
]
