"""The unified benchmark harness: schema, runner, and regression compare.

``python -m repro bench --suite quick`` runs every declared E-experiment
through :func:`repro.bench.runner.run_suite` and writes a schema-versioned
``BENCH_<git-sha>.json`` trajectory file; ``--compare BENCH_seed.json``
diffs it against a committed baseline and exits nonzero on regression.
See DESIGN.md §11 for the trajectory schema and the regression policy.
"""

from repro.bench.compare import (
    ComparisonReport,
    MetricDelta,
    compare_trajectories,
)
from repro.bench.runner import (
    Experiment,
    default_bench_dir,
    discover,
    format_table,
    run_experiment,
    run_suite,
)
from repro.bench.schema import (
    BENCH_FORMAT,
    CONDENSED_METRICS,
    Metric,
    condense,
    git_sha,
    higher_is_better,
    info,
    lower_is_better,
    provenance,
    source_lines,
)

__all__ = [
    "BENCH_FORMAT",
    "CONDENSED_METRICS",
    "ComparisonReport",
    "Experiment",
    "Metric",
    "MetricDelta",
    "compare_trajectories",
    "condense",
    "default_bench_dir",
    "discover",
    "format_table",
    "git_sha",
    "higher_is_better",
    "info",
    "lower_is_better",
    "provenance",
    "run_experiment",
    "run_suite",
    "source_lines",
]
