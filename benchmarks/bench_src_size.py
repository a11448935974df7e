"""SRC: how much source the system is.

ROADMAP's design aim is the same behaviour and speed from less code, so the
BENCH trajectory carries the size of ``src/repro`` next to the timings: a PR
that deletes a path shows here.  ``info`` only — growth is not a regression
by itself.
"""

from __future__ import annotations

from repro.bench import Experiment, info, source_lines


def run_bench(quick: bool = False) -> dict:
    lines = source_lines()
    return {"metrics": {"src_lines": info(lines, unit="lines")},
            "lines": [f"{lines:,} lines of Python under src/repro"]}


EXPERIMENT = Experiment(
    experiment_id="SRC",
    title="source size: lines of Python under src/repro",
    run=run_bench,
)
