"""Trajectory comparison: diff two BENCH files into a regression report.

The baseline's metric specs govern the comparison — its ``direction`` and
``threshold_pct`` decide what counts as a regression, so tightening or
loosening a gate is a baseline edit, not a code change.  Rules:

* a gated metric (``direction`` ``lower``/``higher`` with a threshold)
  regresses when it moves against its direction by *strictly more* than
  ``threshold_pct`` percent — landing exactly on the threshold passes;
* an experiment or gated metric present in the baseline but absent from
  the current run is a regression (coverage must never silently shrink);
* an experiment that errored in the current run but ran in the baseline
  is a regression;
* experiments/metrics new in the current run are listed but never gate —
  they gate once they enter the committed baseline;
* ``info`` metrics are reported as context only, and so is a libcrypto
  (``provenance["libcrypto"]``, which decides every signature batch's
  path) that differs between the two runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.bench.schema import BENCH_FORMAT, Metric


@dataclass
class MetricDelta:
    """One gated metric's movement between baseline and current."""

    experiment_id: str
    metric: str
    baseline: float
    current: float
    direction: str
    threshold_pct: float
    unit: str = ""

    @property
    def pct_change(self) -> float:
        if self.baseline == 0.0:
            return math.inf if self.current > 0 else (
                -math.inf if self.current < 0 else 0.0)
        return (self.current - self.baseline) / abs(self.baseline) * 100.0

    @property
    def regressed(self) -> bool:
        pct = self.pct_change
        if self.direction == "lower":
            return pct > self.threshold_pct
        if self.direction == "higher":
            return pct < -self.threshold_pct
        return False

    @property
    def improved(self) -> bool:
        pct = self.pct_change
        if self.direction == "lower":
            return pct < -self.threshold_pct
        if self.direction == "higher":
            return pct > self.threshold_pct
        return False

    def describe(self) -> str:
        pct = self.pct_change
        arrow = "+" if pct >= 0 else ""
        unit = f" {self.unit}" if self.unit else ""
        return (f"{self.experiment_id}/{self.metric}: "
                f"{self.baseline:g}{unit} -> {self.current:g}{unit} "
                f"({arrow}{pct:.1f}%, {self.direction} is better, "
                f"threshold {self.threshold_pct:g}%)")


@dataclass
class ComparisonReport:
    """Everything ``--compare`` found, ready to render or gate on."""

    regressions: list[MetricDelta] = field(default_factory=list)
    improvements: list[MetricDelta] = field(default_factory=list)
    missing_experiments: list[str] = field(default_factory=list)
    errored_experiments: list[str] = field(default_factory=list)
    missing_metrics: list[tuple[str, str]] = field(default_factory=list)
    new_experiments: list[str] = field(default_factory=list)
    provenance: list[str] = field(init=False, default_factory=list)
    compared_metrics: int = 0

    @property
    def ok(self) -> bool:
        return not (self.regressions or self.missing_experiments
                    or self.errored_experiments or self.missing_metrics)

    def render(self) -> str:
        lines: list[str] = []
        if self.missing_experiments:
            lines.append("experiments missing from current run:")
            lines.extend(f"  - {x}" for x in self.missing_experiments)
        if self.errored_experiments:
            lines.append("experiments that errored in current run:")
            lines.extend(f"  - {x}" for x in self.errored_experiments)
        if self.missing_metrics:
            lines.append("gated metrics missing from current run:")
            lines.extend(f"  - {exp}/{name}"
                         for exp, name in self.missing_metrics)
        if self.regressions:
            lines.append("REGRESSIONS (beyond threshold):")
            lines.extend(f"  - {delta.describe()}"
                         for delta in self.regressions)
        if self.improvements:
            lines.append("improvements (beyond threshold):")
            lines.extend(f"  + {delta.describe()}"
                         for delta in self.improvements)
        if self.new_experiments:
            lines.append("new experiments (not gated until baselined):")
            lines.extend(f"  + {x}" for x in self.new_experiments)
        lines.extend(f"provenance: {line}" for line in self.provenance)
        verdict = ("OK" if self.ok else "REGRESSION")
        lines.append(
            f"verdict: {verdict} — {self.compared_metrics} gated metric(s) "
            f"compared, {len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s)"
        )
        return "\n".join(lines)


def _check_format(trajectory: Mapping, label: str) -> None:
    if trajectory.get("format") != BENCH_FORMAT:
        raise ValueError(
            f"{label} is not a {BENCH_FORMAT} document "
            f"(format={trajectory.get('format')!r})"
        )


def compare_trajectories(baseline: Mapping, current: Mapping
                         ) -> ComparisonReport:
    """Diff ``current`` against ``baseline`` under the baseline's specs."""
    _check_format(baseline, "baseline")
    _check_format(current, "current")
    report = ComparisonReport()
    base_experiments = baseline.get("experiments", {})
    curr_experiments = current.get("experiments", {})

    for experiment_id, base_entry in base_experiments.items():
        curr_entry = curr_experiments.get(experiment_id)
        base_ok = base_entry.get("status") == "ok"
        if curr_entry is None:
            if base_ok:
                report.missing_experiments.append(experiment_id)
            continue
        if base_ok and curr_entry.get("status") != "ok":
            report.errored_experiments.append(
                f"{experiment_id} ({curr_entry.get('status')})"
            )
            continue
        if not base_ok:
            # Baseline never produced numbers here; nothing to gate on.
            continue
        base_metrics = base_entry.get("metrics", {})
        curr_metrics = curr_entry.get("metrics", {})
        for name, raw in base_metrics.items():
            spec = Metric.from_dict(raw)
            if spec.direction == "info" or spec.threshold_pct is None:
                continue
            raw_current = curr_metrics.get(name)
            if raw_current is None:
                report.missing_metrics.append((experiment_id, name))
                continue
            delta = MetricDelta(
                experiment_id=experiment_id,
                metric=name,
                baseline=spec.value,
                current=Metric.from_dict(raw_current).value,
                direction=spec.direction,
                threshold_pct=spec.threshold_pct,
                unit=spec.unit,
            )
            report.compared_metrics += 1
            if delta.regressed:
                report.regressions.append(delta)
            elif delta.improved:
                report.improvements.append(delta)

    report.new_experiments = sorted(
        set(curr_experiments) - set(base_experiments)
    )
    libraries = [trajectory.get("provenance", {}).get("libcrypto", "unrecorded")
                 for trajectory in (baseline, current)]
    if libraries[0] != libraries[1]:
        report.provenance.append("libcrypto %s -> %s" % tuple(
            library or "not loaded" for library in libraries))
    return report
