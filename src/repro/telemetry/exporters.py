"""Telemetry exporters: Prometheus text, JSON snapshots, span trees.

Three consumers, three formats:

* :func:`to_prometheus` renders a registry in the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` headers, cumulative ``le``
  histogram buckets) — what a scraper or the CI smoke job reads;
* :func:`snapshot` / :class:`~repro.telemetry.metrics.MetricsRegistry.from_snapshot`
  round-trip a registry through JSON — what benchmark results files and
  a run directory's ``metrics.json`` (:func:`write_run_metrics`) carry;
* :func:`render_span_tree` prints a flame-style nested tree of finished
  spans with both clocks — what ``python -m repro spans`` shows.

The exposition format is tested as a round-trip against the parser in
``tests/telemetry/exposition_oracle.py``, not just eyeballed.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, Mapping

from repro.telemetry.metrics import (
    QUANTILE_POINTS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracing import Span, build_span_tree

# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render every metric in the Prometheus text exposition format."""
    lines: list[str] = []
    for metric in registry.collect():
        lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
        lines.append(f"# TYPE {metric.name} {metric.metric_type}")
        if isinstance(metric, (Counter, Gauge)):
            for labels, child in metric.children():
                lines.append(
                    f"{metric.name}{_format_labels(labels)} "
                    f"{_format_value(child.value)}"
                )
                # Exemplars ride as comment lines (OpenMetrics-flavored),
                # which parsers skip — round-trips stay exact.
                exemplar = getattr(child, "exemplar", None)
                if exemplar:
                    lines.append(
                        f"# EXEMPLAR {metric.name}{_format_labels(labels)} "
                        f"{_format_labels(exemplar)}"
                    )
        elif isinstance(metric, Histogram):
            for labels, child in metric.children():
                cumulative = child.cumulative_counts()
                edges = [*metric.buckets, math.inf]
                for edge, count in zip(edges, cumulative):
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_value(edge)
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_format_labels(bucket_labels)} {count}"
                    )
                lines.append(f"{metric.name}_sum{_format_labels(labels)} "
                             f"{_format_value(child.sum)}")
                lines.append(f"{metric.name}_count{_format_labels(labels)} "
                             f"{child.count}")
                # Interpolated quantiles as derived gauges (`<name>_p50` …)
                # rather than `quantile` labels, which the histogram type
                # reserves for summaries; emitted only once observed.
                if child.count:
                    quantiles = child.quantiles()
                    for _, key in QUANTILE_POINTS:
                        lines.append(
                            f"{metric.name}_{key}{_format_labels(labels)} "
                            f"{_format_value(quantiles[key])}"
                        )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# JSON snapshot
# ---------------------------------------------------------------------------


def snapshot(registry: MetricsRegistry) -> dict:
    """JSON-serializable snapshot (inverse:
    :meth:`MetricsRegistry.from_snapshot`)."""
    return registry.snapshot()


#: A run directory's registry snapshot, written when the run ends.
METRICS_FILE = "metrics.json"


def write_run_metrics(root: str) -> str:
    """Write the process registry, with run provenance, to
    ``root/metrics.json`` (every recording command ends with this); returns
    the path.  ``repro metrics`` reads it back through
    :meth:`MetricsRegistry.from_snapshot`, which ignores the extra key."""
    from repro.bench.schema import provenance

    path = os.path.join(root, METRICS_FILE)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({**snapshot(REGISTRY), "provenance": provenance()},
                  handle, sort_keys=True, indent=2)
        handle.write("\n")
    return path


# ---------------------------------------------------------------------------
# Span tree (flame-style) rendering
# ---------------------------------------------------------------------------

_INTERESTING_ATTRS = ("gas", "gas_used", "bytes", "messages", "transactions",
                      "outputs", "providers", "executors", "status_detail")


def _span_label(span: Span) -> str:
    parts = [f"{span.name}",
             f"sim={span.sim_duration:.1f}",
             f"wall={span.wall_duration * 1000.0:.2f}ms"]
    if span.status != "ok":
        parts.append(f"status={span.status}")
    for key in _INTERESTING_ATTRS:
        if key in span.attributes:
            parts.append(f"{key}={span.attributes[key]}")
    return "  ".join(parts)


def render_span_tree(spans: Iterable[Span]) -> str:
    """Render finished spans as an indented tree, roots first.

    The layout is flame-graph-like: each child row sits under its parent
    with box-drawing guides, so a root-to-leaf read gives the time
    decomposition of one session.
    """
    span_list = list(spans)
    if not span_list:
        return "(no spans)"
    roots, children = build_span_tree(span_list)
    lines: list[str] = []

    def walk(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(_span_label(span))
            child_prefix = ""
        else:
            connector = "└─ " if is_last else "├─ "
            lines.append(prefix + connector + _span_label(span))
            child_prefix = prefix + ("   " if is_last else "│  ")
        kids = children.get(span.span_id, [])
        for index, kid in enumerate(kids):
            walk(kid, child_prefix, index == len(kids) - 1, False)

    for root in roots:
        walk(root, "", True, True)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Profiler flame data (collapsed stacks + terminal tree)
# ---------------------------------------------------------------------------


def profile_to_collapsed(profile) -> str:
    """Render a :class:`~repro.telemetry.profiler.Profile` in the
    collapsed-stack format flamegraph tools eat (``a;b;c 42`` per line).

    Lines are sorted, so the same sample multiset always yields
    byte-identical output — the property the determinism tests pin down.
    """
    lines = [";".join(stack) + f" {count}"
             for stack, count in profile.samples.items()]
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


def profile_snapshot(profile) -> dict:
    """JSON-serializable profile dump (inverse:
    :meth:`~repro.telemetry.profiler.Profile.from_dict`)."""
    return profile.to_dict()


#: Branches below this share of all samples are folded out of the tree.
FOLD_BELOW_PERCENT = 0.5


def render_profile_tree(profile) -> str:
    """Render merged flame data as an indented tree, heaviest branch first.

    Each row shows the inclusive sample count and percentage for one stack
    prefix; branches below :data:`FOLD_BELOW_PERCENT` of total samples are
    folded to keep terminal output readable.
    """
    total = profile.total_samples
    if not total:
        return "(no samples)"

    # Aggregate inclusive counts per stack prefix.
    root: dict = {}
    counts: dict[int, int] = {}

    def node_for(prefix_node: dict, frame: str) -> dict:
        child = prefix_node.get(frame)
        if child is None:
            child = prefix_node[frame] = {}
            counts[id(child)] = 0
        return child

    for stack, count in profile.samples.items():
        node = root
        for frame in stack:
            node = node_for(node, frame)
            counts[id(node)] += count

    lines = [f"profile: {total} samples, mode={profile.mode}, "
             f"{profile.attribution_ratio * 100.0:.1f}% span-attributed"]

    def walk(node: dict, prefix: str) -> None:
        kids = sorted(node.items(),
                      key=lambda item: (-counts[id(item[1])], item[0]))
        visible = [(frame, child) for frame, child in kids
                   if counts[id(child)] * 100.0 / total >= FOLD_BELOW_PERCENT]
        folded = len(kids) - len(visible)
        for index, (frame, child) in enumerate(visible):
            last = index == len(visible) - 1 and not folded
            connector = "└─ " if last else "├─ "
            inclusive = counts[id(child)]
            lines.append(
                f"{prefix}{connector}{frame}  "
                f"{inclusive} ({inclusive * 100.0 / total:.1f}%)"
            )
            walk(child, prefix + ("   " if last else "│  "))
        if folded:
            lines.append(f"{prefix}└─ … {folded} branch(es) "
                         f"< {FOLD_BELOW_PERCENT}%")

    walk(root, "")
    return "\n".join(lines)


def spans_from_events(events: Iterable) -> list[Span]:
    """Extract finished spans from a lifecycle-event stream.

    Duck-typed over anything with ``.name`` and ``.data`` so it works on
    live :class:`~repro.core.events.LifecycleEvent` objects and on replayed
    JSONL records alike.
    """
    spans = []
    for event in events:
        if event.name == "span.end":
            spans.append(Span.from_dict(dict(event.data)))
    return spans
