"""Unified benchmark harness: shared builders + the CLI entry point.

Every ``bench_*.py`` module in this directory declares a module-level
``EXPERIMENT`` (:class:`repro.bench.Experiment`) whose ``run(quick)``
callable performs the measurement and returns its published metrics.
The discovery/execution/trajectory logic lives in :mod:`repro.bench`;
this file is the in-tree entry point —

    PYTHONPATH=src python benchmarks/harness.py --suite quick
    PYTHONPATH=src python -m repro bench --suite quick --compare BENCH_seed.json

— plus the builders experiments share: the seeded ML problem (used by the
pytest fixtures and the harness path alike) and the chaos batch sweep E21
settles and E22 explains.
"""

from __future__ import annotations

import atexit
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

# Sibling imports (reporting, this module) work no matter the rootdir.
sys.path.insert(0, str(Path(__file__).parent))

#: Cache keyed by (nodes, samples): the split is deterministic, and the
#: quick suite reuses it across E5/E6/E15 within one process.
_HAR_CACHE: dict[tuple[int, int], tuple] = {}


def bench_rng(seed: int = 20260705) -> np.random.Generator:
    """The shared benchmark RNG (same seed as the pytest fixture)."""
    return np.random.default_rng(seed)


def har_problem(nodes: int = 24, samples: int = 3000):
    """A seeded non-IID HAR split shared by the ML experiments.

    The default parameterization matches the session-scoped pytest
    fixture; quick-suite callers shrink both axes for CI latency.
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


def main(argv: list[str] | None = None) -> int:
    """Delegate to ``python -m repro bench`` with the same arguments."""
    from repro.cli import main as cli_main

    return cli_main(["bench", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
