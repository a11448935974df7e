"""Checks of the E25 benchmark itself (``pytest benchmarks/e25``; tier-1
does not collect this directory).  Smoke-sized: a few ops per workload."""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


@functools.lru_cache(maxsize=None)
def smoke(name: str, seed: int, trace: bool, tmp: Path) -> dict:
    return run.measure(name, seed, spec.REF_SECONDS, trace, smoke=True,
                       out_dir=tmp)


@pytest.fixture(scope="module")
def tmp(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("e25-out")


def test_benchmark_json_matches_the_catalogue():
    assert BENCHMARK["run_seconds"] == spec.REF_SECONDS
    assert BENCHMARK["paths"] == ["benchmarks/e25"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e25/run.py"]
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in spec.WORKLOADS.values()]
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER]


def test_every_layer_has_its_metric():
    names = {metric.name for metric in spec.PER_LAYER}
    assert {f"{layer}_ms" for layer in layers.LAYERS} <= names


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_printed_names_equal_benchmark_json(name, trace, tmp, capsys):
    result = smoke(name, 1, trace, tmp)
    run.report(result)
    printed = capsys.readouterr().out.rstrip().split("\n")
    last = json.loads(printed[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [metric["name"] for metric in expected]
    for metric in expected:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(f"{name} {metric['name']} ")
                   and line.endswith(f" {metric['unit']}")
                   for line in printed)
    if not trace:
        assert all(entry["value"] > 0 for entry in last["metrics"].values())


def test_self_time_arithmetic_on_a_nested_tree():
    root, hash_, encode = (layers.LAYERS.index(name) for name in (
        layers.ROOT_LAYER, "crypto.hash", "serialization.encode"))
    rows = [
        # [layer, parent, start, end, counted, size]
        [root, -1, 0.0, 10.0, True, 0],
        [hash_, 0, 1.0, 5.0, True, 0],
        [encode, 1, 2.0, 4.0, True, 7],    # canonical_json_bytes ...
        [encode, 2, 2.5, 3.5, True, 7],    # ... calling canonical_json
        [hash_, 0, 6.0, 7.0, True, 0],
        [root, -1, 20.0, 21.0, True, 0],
    ]
    assert layers.self_times(rows) == [5.0, 2.0, 1.0, 1.0, 1.0, 1.0]
    first, second = layers.per_op_layers(rows)
    assert first[layers.ROOT_LAYER]["ms"] == 5000.0
    assert first["crypto.hash"] == {"ms": 3000.0, "calls": 2, "size": 0}
    # The recursion inside one layer is one call of 7 bytes, not two.
    assert first["serialization.encode"] == {"ms": 2000.0, "calls": 1,
                                             "size": 7}
    assert sum(cell["ms"] for cell in first.values()) == 10_000.0
    assert second[layers.ROOT_LAYER]["ms"] == 1000.0


def test_tail_and_growth_windows():
    assert spec.tail_index(101) == 90  # p90: ten of 101 are slower
    assert spec.tail_index(64) == 53
    assert spec.tail_index(3) == 1     # too short a pass: the median
    assert spec.growth_window(64, 1) == 32
    assert spec.growth_window(24, 6) == 12
    assert spec.growth_window(30, 6) == 12  # whole cycles only
    assert spec.growth_window(6, 6) == 6
    faulted = spec.WORKLOADS["ml_faulted"]
    assert spec.op_count(faulted, spec.REF_SECONDS) == faulted.ops
    assert spec.op_count(faulted, 4) % faulted.cycle == 0


def test_times_are_rescaled_by_the_slices_next_to_them():
    # A region that took 100 ms while the host ran the slice 25 % slow.
    timed = {"ms": 100.0, "slice_ms": 1.25 * spec.REF_SLICE_MS}
    assert run.ref_ms(timed) == pytest.approx(80.0)


@pytest.mark.parametrize("name", ["agg_sustained", "chain_bulk"])
def test_same_seed_repeats_and_another_seed_differs(name, tmp):
    first = smoke(name, 1, False, tmp)
    again = run.measure(name, 1, spec.REF_SECONDS, False, smoke=True)
    other = smoke(name, 2, False, tmp)
    for key in ("digest", "blocks", "attempted", "failed"):
        assert first[key] == again[key]
    assert first["metrics"]["gas_per_op"] == again["metrics"]["gas_per_op"]
    assert other["digest"] != first["digest"]


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_traced_pass_changes_nothing_and_restores_every_probe(name, tmp):
    bindings = layers.ProbeSet(layers.SpanRecorder()).bindings
    before = [vars(owner)[attribute] for owner, attribute, _, _ in bindings]
    traced = smoke(name, 1, True, tmp)
    after = [vars(owner)[attribute] for owner, attribute, _, _ in bindings]
    assert all(a is b for a, b in zip(before, after))
    assert traced["digest"] == smoke(name, 1, False, tmp)["digest"]
    spans = (tmp / f"{name}.spans.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["layer"] == layers.ROOT_LAYER


def test_degraded_sessions_show_only_under_faults(tmp):
    assert smoke("ml_faulted", 1, True, tmp)["metrics"][
        "core.degraded_per_op"] > 0
    assert smoke("ml_wide", 1, True, tmp)["metrics"][
        "core.degraded_per_op"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "benchmarks" / "e25"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns(
        "__pycache__", "out", "results"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "chain_bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
