"""Builders the experiments share.

``har_problem`` is the seeded ML split E5, E6, E15 and E20 train on;
``chaos_sweep`` is the chaos batch E21 settles and E22 explains;
``alternating_repeats`` and ``median_spread`` turn E3's and E20's
timing-derived gates into medians of repeats.  The
experiments themselves run through ``python -m repro bench``
(:mod:`repro.bench.runner`), which puts this directory on ``sys.path``.
"""

from __future__ import annotations

import atexit
import shutil
import statistics
import tempfile
from typing import Callable

import numpy as np

#: Cache keyed by (nodes, samples): the split is deterministic, and the
#: quick suite reuses it across E5/E6/E15 within one process.
_HAR_CACHE: dict[tuple[int, int], tuple] = {}


def har_problem(nodes: int = 24, samples: int = 3000):
    """A seeded non-IID HAR split shared by the ML experiments.

    Quick-suite callers shrink both axes for CI latency.
    """
    key = (nodes, samples)
    if key not in _HAR_CACHE:
        from repro.ml.datasets import (
            make_iot_activity,
            split_dirichlet,
            train_test_split,
        )

        rng = np.random.default_rng(424242)
        data = make_iot_activity(samples, rng)
        train, test = train_test_split(data, 0.25, rng)
        parts = split_dirichlet(train, nodes, alpha=0.5, rng=rng,
                                min_samples=15)
        _HAR_CACHE[key] = (parts, test)
    return _HAR_CACHE[key]


#: A gate derived from wall times is the median of this many alternating
#: repeats in one process (E25's rule), never one ratio of two walls.
TIMING_REPEATS = 5


def alternating_repeats(runs: dict[str, Callable[[], object]],
                        repeats: int = TIMING_REPEATS) -> dict[str, list]:
    """Call every function in ``runs`` once per repeat, in turn (a, b, a,
    b, ...), so drift on a shared host falls on each side alike; returns
    each function's results in repeat order."""
    results: dict[str, list] = {name: [] for name in runs}
    for _ in range(repeats):
        for name, run in runs.items():
            results[name].append(run())
    return results


def median_spread(values: list[float]) -> tuple[float, float]:
    """``(median, spread)`` with spread the interquartile range over the
    median, as E25 reports it."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


#: Every CHAOS_FAULT_EVERY-th chaos job runs with faults armed at
#: CHAOS_FAULT_RATE.
CHAOS_FAULT_RATE = 0.4
CHAOS_FAULT_EVERY = 10

#: Cache keyed by (jobs, workers, kill_every): E21 and E22 describe the same
#: quick sweep, so one process runs it once and both read its directory.
_CHAOS_CACHE: dict[tuple[int, int, int], tuple] = {}


def chaos_sweep(jobs: int, workers: int, kill_every: int):
    """Run the sharded chaos batch once per process: ``(root, specs, report)``.

    One busy worker is SIGKILLed every ``kill_every`` results.  The run
    directory is kept for later experiments and removed at interpreter
    exit.
    """
    key = (jobs, workers, kill_every)
    if key not in _CHAOS_CACHE:
        from repro.control import JobSpec, batch_execute, submit_batch

        specs = [
            JobSpec(
                job_id=f"job-{index:05d}",
                seed=2100 + index,
                fault_rate=(CHAOS_FAULT_RATE
                            if index % CHAOS_FAULT_EVERY == 0 else 0.0),
            )
            for index in range(jobs)
        ]
        root = tempfile.mkdtemp(prefix="pds2-chaos-")
        atexit.register(shutil.rmtree, root, ignore_errors=True)
        submit_batch(root, specs)
        report = batch_execute(
            root, workers=workers,
            kill_after=tuple(range(kill_every, jobs, kill_every)))
        _CHAOS_CACHE[key] = (root, specs, report)
    return _CHAOS_CACHE[key]
