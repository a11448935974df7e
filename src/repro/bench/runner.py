"""Experiment discovery and the unified benchmark runner.

Every ``benchmarks/bench_*.py`` module declares one module-level
:class:`Experiment`: an id, a title, and a ``run(quick)`` callable that
performs the measurement and returns its published metrics.  The runner
imports those modules (no pytest involved), executes each experiment under
a common envelope — wall-clock timing, a telemetry reset/snapshot pair,
optional sim-time extraction — and assembles the schema-versioned
trajectory dict that ``python -m repro bench`` writes to
``BENCH_<git-sha>.json``.

An experiment that raises is recorded with ``status: "error: …"`` instead
of aborting the suite; the comparator treats an errored experiment as a
regression against any baseline where it ran.
"""

from __future__ import annotations

import importlib.util
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional

from repro.bench.schema import (
    BENCH_FORMAT,
    Metric,
    condense,
    info,
    provenance,
)

#: Experiment ids whose quick variant is too slow for the CI gate.
#: (Nothing currently excluded; the hook exists so one slow experiment
#: doesn't force dropping the whole gate.)
QUICK_EXCLUDED: frozenset[str] = frozenset()


@dataclass
class Experiment:
    """One benchmark module's declaration of itself.

    ``run(quick)`` performs the measurement and returns a mapping of
    metric name to :class:`~repro.bench.schema.Metric` (or a dict with a
    ``"metrics"`` key of that shape — convenient when the function also
    returns report lines for the pytest path).  ``quick=True`` asks for a
    reduced parameterization suitable for a CI gate: same code paths,
    smaller sizes, deterministic seeds.
    """

    experiment_id: str
    title: str
    run: Callable[[bool], Mapping]


def _import_bench_module(path: Path):
    name = f"pds2_bench_{path.stem}"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load benchmark module {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def default_bench_dir() -> Path:
    """The checkout's ``benchmarks/`` directory.

    Resolved relative to the installed package first (source layout:
    ``src/repro/…`` two levels under the repo root), falling back to the
    working directory for odd deployments.
    """
    import repro

    package_root = Path(repro.__file__).resolve().parents[2]
    candidate = package_root / "benchmarks"
    if candidate.is_dir():
        return candidate
    cwd_candidate = Path.cwd() / "benchmarks"
    if cwd_candidate.is_dir():
        return cwd_candidate
    raise FileNotFoundError("cannot locate the benchmarks/ directory")


def discover(bench_dir: Optional[Path] = None) -> dict[str, Experiment]:
    """Collect ``EXPERIMENT`` declarations from every ``bench_*.py``.

    Modules without a declaration are skipped silently (they may be
    pytest-only helpers); a module that fails to import is a hard error —
    a broken benchmark must not silently vanish from the trajectory.
    Returned in id order (E2 before E10), the order a suite runs in.
    """
    bench_dir = bench_dir if bench_dir is not None else default_bench_dir()
    # Benchmarks import their siblings (reporting, shared builders).
    if str(bench_dir) not in sys.path:
        sys.path.insert(0, str(bench_dir))
    experiments: dict[str, Experiment] = {}
    for path in sorted(bench_dir.glob("bench_*.py")):
        module = _import_bench_module(path)
        declared = getattr(module, "EXPERIMENT", None)
        if declared is None:
            continue
        if declared.experiment_id in experiments:
            raise ValueError(
                f"duplicate experiment id {declared.experiment_id!r} "
                f"declared by {path.name}"
            )
        experiments[declared.experiment_id] = declared
    return {experiment_id: experiments[experiment_id]
            for experiment_id in sorted(experiments,
                                        key=_experiment_sort_key)}


def _normalize_metrics(raw: Mapping) -> dict[str, Metric]:
    metrics = raw.get("metrics", raw) if isinstance(raw, Mapping) else {}
    out: dict[str, Metric] = {}
    for name, metric in metrics.items():
        if isinstance(metric, Metric):
            out[name] = metric
        elif isinstance(metric, Mapping):
            out[name] = Metric.from_dict(metric)
        else:
            out[name] = info(float(metric))
    return out


def run_experiment(experiment: Experiment, quick: bool = True) -> dict:
    """Run one experiment under the common envelope; never raises."""
    from repro import telemetry

    telemetry.reset()
    entry: dict = {"title": experiment.title, "status": "ok"}
    started = time.perf_counter()
    try:
        raw = experiment.run(quick)
    except Exception as exc:  # noqa: BLE001 — recorded, not swallowed
        entry["status"] = f"error: {type(exc).__name__}: {exc}"
        entry["traceback"] = traceback.format_exc(limit=8)
        raw = {}
    wall_s = time.perf_counter() - started
    snapshot = telemetry.snapshot(telemetry.REGISTRY)
    telemetry.reset()
    metrics = _normalize_metrics(raw)
    metrics.setdefault("wall_s", info(wall_s, unit="s"))
    entry["wall_s"] = wall_s
    entry["metrics"] = {name: metric.to_dict()
                       for name, metric in sorted(metrics.items())}
    entry["telemetry"] = condense(snapshot)
    return entry


def run_suite(suite: str = "quick",
              bench_dir: Optional[Path] = None,
              only: Optional[list[str]] = None,
              progress: Optional[Callable[[str], None]] = None) -> dict:
    """Run the discovered experiments and assemble a trajectory dict."""
    if suite not in ("quick", "full"):
        raise ValueError(f"unknown suite {suite!r} (use 'quick' or 'full')")
    quick = suite == "quick"
    experiments = discover(bench_dir)
    if only:
        wanted = {x.upper() for x in only}
        unknown = wanted - set(experiments)
        if unknown:
            raise ValueError(
                f"unknown experiment id(s): {', '.join(sorted(unknown))}"
            )
        experiments = {k: v for k, v in experiments.items() if k in wanted}
    elif quick:
        experiments = {k: v for k, v in experiments.items()
                       if k not in QUICK_EXCLUDED}
    trajectory: dict = {
        "format": BENCH_FORMAT,
        "suite": suite,
        "provenance": provenance(),
        "experiments": {},
    }
    for experiment_id, experiment in experiments.items():
        if progress is not None:
            progress(f"running {experiment_id}: {experiment.title} …")
        entry = run_experiment(experiment, quick=quick)
        trajectory["experiments"][experiment_id] = entry
        if progress is not None:
            status = entry["status"]
            progress(f"  {experiment_id}: {status} "
                     f"({entry['wall_s']:.2f}s wall)")
    return trajectory


def _experiment_sort_key(experiment_id: str) -> tuple:
    """E2 before E10: split the id into its alpha/numeric parts."""
    head = experiment_id.rstrip("0123456789")
    tail = experiment_id[len(head):]
    return (head, int(tail) if tail.isdigit() else 0)
