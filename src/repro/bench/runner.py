"""Experiment discovery and the unified benchmark runner.

Every ``benchmarks/bench_*.py`` module declares one module-level
:class:`Experiment`: an id, a title, and a ``run(quick)`` callable that
performs the measurement.  The runner is the only way an experiment runs:
it imports those modules (no pytest involved), executes each experiment
under a common envelope — wall-clock timing, a telemetry reset/snapshot
pair — checks its claims, and assembles the schema-versioned trajectory
dict that ``python -m repro bench`` writes to ``BENCH_<git-sha>.json``.
The full suite also writes each experiment's table to
``benchmarks/results/``.

An experiment that raises is recorded with ``status: "error: …"`` instead
of aborting the suite; the comparator treats an errored experiment as a
regression against any baseline where it ran.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional

from repro.bench.schema import (
    BENCH_FORMAT,
    condense,
    higher_is_better,
    info,
    provenance,
)


@dataclass
class Experiment:
    """One benchmark module's declaration of itself.

    ``run(quick)`` performs the measurement and returns
    ``{"metrics": {name: Metric}, "lines": [...], "claims": {name: bool}}``
    (each key optional): the published metrics, the result table, and the
    experiment's checks.  Each claim is published as a gated 0/1 metric
    under its name, and a false one fails ``repro bench``.  ``quick=True``
    asks for a reduced parameterization suitable for a CI gate: same code
    paths, smaller sizes, deterministic seeds.
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
    shared builders); a module that fails to import is a hard error —
    a broken benchmark must not silently vanish from the trajectory.
    Returned in id order (E2 before E10), the order a suite runs in.
    """
    bench_dir = bench_dir if bench_dir is not None else default_bench_dir()
    # Benchmarks import their siblings (the shared builders in harness).
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


def run_experiment(experiment: Experiment, quick: bool = True,
                   results_dir: Optional[Path] = None) -> dict:
    """Run one experiment under the common envelope; never raises.

    With ``results_dir``, an experiment that ran writes its table there.
    """
    from repro import telemetry

    telemetry.reset()
    entry: dict = {"title": experiment.title, "status": "ok"}
    started = time.perf_counter()
    try:
        raw = experiment.run(quick)
        metrics = dict(raw.get("metrics", {}))
        claims = dict(raw.get("claims", {}))
        for name, holds in claims.items():
            metrics[name] = higher_is_better(1.0 if holds else 0.0,
                                             threshold_pct=1.0)
    except Exception as exc:  # noqa: BLE001 — recorded, not swallowed
        entry["status"] = f"error: {type(exc).__name__}: {exc}"
        entry["traceback"] = traceback.format_exc(limit=8)
        raw, metrics, claims = {}, {}, {}
    wall_s = time.perf_counter() - started
    snapshot = telemetry.snapshot(telemetry.REGISTRY)
    telemetry.reset()
    metrics.setdefault("wall_s", info(wall_s, unit="s"))
    entry["wall_s"] = wall_s
    entry["metrics"] = {name: metric.to_dict()
                       for name, metric in sorted(metrics.items())}
    entry["false_claims"] = sorted(name for name, holds in claims.items()
                                   if not holds)
    entry["lines"] = list(raw.get("lines", ()))
    entry["telemetry"] = condense(snapshot)
    if results_dir is not None and entry["status"] == "ok":
        _write_results(results_dir, experiment.experiment_id, entry,
                       snapshot)
    return entry


def _write_results(results_dir: Path, experiment_id: str, entry: dict,
                   snapshot: Mapping) -> None:
    """``<id>.txt`` (the table and the condensed telemetry) and
    ``<id>.metrics.json`` (the full registry snapshot)."""
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = experiment_id.lower()
    header = f"{experiment_id}: {entry['title']}"
    lines = [header, "=" * len(header), *entry["lines"]]
    if entry["telemetry"]:
        lines += ["", "telemetry"]
        lines += [f"  {name:<36} {total:>16,.0f}"
                  for name, total in entry["telemetry"].items()]
    (results_dir / f"{stem}.txt").write_text("\n".join(lines) + "\n")
    (results_dir / f"{stem}.metrics.json").write_text(json.dumps(
        {**snapshot, "provenance": provenance()}, indent=2) + "\n")


def format_table(headers: list[str], rows: list[list]) -> list[str]:
    """Render a fixed-width text table, one string per line."""
    widths = [len(header) for header in headers]
    for row in rows:
        widths = [max(width, len(str(cell)))
                  for width, cell in zip(widths, row)]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(str(cell).rjust(w) for cell, w in zip(row, widths))
        )
    return lines


def run_suite(suite: str = "quick",
              bench_dir: Optional[Path] = None,
              only: Optional[list[str]] = None,
              progress: Optional[Callable[[str], None]] = None) -> dict:
    """Run the discovered experiments and assemble a trajectory dict.

    Only the full suite writes ``<bench_dir>/results/``: the quick one is
    the CI gate and leaves the committed tables alone.
    """
    if suite not in ("quick", "full"):
        raise ValueError(f"unknown suite {suite!r} (use 'quick' or 'full')")
    quick = suite == "quick"
    bench_dir = bench_dir if bench_dir is not None else default_bench_dir()
    results_dir = None if quick else bench_dir / "results"
    experiments = discover(bench_dir)
    if only:
        wanted = {x.upper() for x in only}
        unknown = wanted - set(experiments)
        if unknown:
            raise ValueError(
                f"unknown experiment id(s): {', '.join(sorted(unknown))}"
            )
        experiments = {k: v for k, v in experiments.items() if k in wanted}
    trajectory: dict = {
        "format": BENCH_FORMAT,
        "suite": suite,
        "provenance": provenance(),
        "experiments": {},
    }
    for experiment_id, experiment in experiments.items():
        if progress is not None:
            progress(f"running {experiment_id}: {experiment.title} …")
        entry = run_experiment(experiment, quick=quick,
                               results_dir=results_dir)
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
