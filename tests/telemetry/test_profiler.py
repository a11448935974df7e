"""Tests for the deterministic sampling profiler.

The load-bearing properties, in order: byte-identical collapsed output for
identical seeded runs (in-process and across fresh interpreters via
``python -m repro profile``), ≥90% span attribution over a real workload,
near-zero cost for disabled ``profiled`` markers, and exporter round-trips.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    Profile,
    Profiler,
    profile_to_collapsed,
    profiled,
    render_profile_tree,
)
from repro.telemetry.tracing import Tracer

REPO_ROOT = Path(__file__).resolve().parents[2]


def busy_work(iterations: int = 400) -> int:
    """A deterministic pure-Python workload with some call depth."""
    total = 0
    for value in range(iterations):
        total += _inner(value)
    return total


def _inner(value: int) -> int:
    return (value * value) % 97


class TestValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(TelemetryError):
            Profiler(mode="gamma-rays")

    def test_nonpositive_hz_rejected(self):
        with pytest.raises(TelemetryError):
            Profiler(mode="wall", hz=0.0)

    def test_call_interval_floor(self):
        with pytest.raises(TelemetryError):
            Profiler(mode="calls", call_interval=0)

    def test_double_start_rejected(self):
        prof = Profiler(mode="calls")
        prof.start()
        try:
            with pytest.raises(TelemetryError):
                prof.start()
        finally:
            prof.stop()

    def test_stop_without_start_rejected(self):
        with pytest.raises(TelemetryError):
            Profiler(mode="calls").stop()

    def test_second_profiler_rejected_while_active(self):
        with Profiler(mode="calls"):
            with pytest.raises(TelemetryError):
                Profiler(mode="calls").start()
        with Profiler(mode="calls"):  # the slot is free again
            pass


class TestSampling:
    def test_calls_mode_captures_workload_frames(self):
        with Profiler(mode="calls", call_interval=8) as prof:
            busy_work()
        profile = prof.result()
        assert profile.total_samples > 0
        labels = {frame for stack in profile.samples for frame in stack}
        assert any("busy_work" in label for label in labels)
        assert any("_inner" in label for label in labels)

    def test_calls_mode_is_deterministic_in_process(self):
        def run_once() -> str:
            with Profiler(mode="calls", call_interval=8) as prof:
                busy_work()
            return profile_to_collapsed(prof.result())

        run_once()  # warm any import-time laziness
        assert run_once() == run_once()

    def test_span_and_region_attribution(self):
        tracer = Tracer(sim_clock=lambda: 0.0)
        with Profiler(mode="calls", call_interval=4, trace=tracer) as prof:
            with tracer.span("phase.test"):
                with profiled("region.test"):
                    busy_work()
        profile = prof.result()
        assert profile.attribution_ratio >= 0.9
        attributed = [stack for stack in profile.samples
                      if "span:phase.test" in stack]
        assert attributed
        assert any("region:region.test" in stack for stack in attributed)
        # Context frames come first, root-first.
        for stack in attributed:
            assert stack[0] == "span:phase.test"

    def test_region_stack_balanced_after_run(self):
        prof = Profiler(mode="calls", call_interval=4)
        with prof:
            with profiled("outer"):
                with profiled("inner"):
                    busy_work(50)
        assert prof.regions == []

    def test_sim_mode_uses_sim_clock(self):
        clock = {"now": 0.0}

        def advance():
            clock["now"] += 0.01
            return clock["now"]

        tracer = Tracer(sim_clock=lambda: clock["now"])
        with Profiler(mode="sim", hz=50.0, sim_clock=advance,
                      trace=tracer) as prof:
            busy_work(100)
        assert prof.result().total_samples > 0


class TestOverhead:
    def test_disabled_markers_are_cheap(self):
        """With no profiler active, `profiled` must stay in the noise: a
        generous absolute bound (100k enters/exits under a second) so the
        test never flakes on slow CI while still catching an accidental
        O(expensive) disabled path."""
        marker = profiled("hot.region")
        started = time.perf_counter()
        for _ in range(100_000):
            with marker:
                pass
        assert time.perf_counter() - started < 1.0


class TestExporters:
    def _tiny_profile(self) -> Profile:
        return Profile(
            mode="calls",
            samples={
                ("span:a", "repro/x.py:f"): 3,
                ("span:a", "repro/x.py:f", "repro/y.py:g"): 1,
                ("repro/z.py:h",): 1,
            },
            total_samples=5,
            attributed_samples=4,
            events_seen=320,
            call_interval=64,
        )

    def test_collapsed_is_sorted_and_stable(self):
        profile = self._tiny_profile()
        text = profile_to_collapsed(profile)
        assert text.splitlines() == sorted(text.splitlines())
        reordered = Profile(
            mode="calls",
            samples=dict(reversed(list(profile.samples.items()))),
            total_samples=5, attributed_samples=4, events_seen=320,
        )
        assert profile_to_collapsed(reordered) == text
        assert "span:a;repro/x.py:f 3" in text

    def test_tree_render_mentions_heavy_branch(self):
        rendered = render_profile_tree(self._tiny_profile())
        assert "span:a" in rendered
        assert "repro/x.py:f" in rendered
        assert "(no samples)" == render_profile_tree(Profile(mode="calls"))


class TestSubprocessDeterminism:
    """`python -m repro profile` twice in fresh interpreters: the collapsed
    output must be byte-identical.  Fresh processes are the honest test —
    in-process LRU caches (signature verification, hash memoization) make
    a second same-process marketplace run legitimately cheaper."""

    def _run(self) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", "profile",
             "--format", "collapsed", "--providers", "4",
             "--executors", "2", "--seed", "7"],
            capture_output=True, text=True, timeout=300, env=env,
            cwd=str(REPO_ROOT),
        )

    def test_byte_identical_and_attributed(self):
        first = self._run()
        second = self._run()
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr
        assert first.stdout == second.stdout
        assert first.stdout.strip()
        lines = first.stdout.strip().splitlines()
        attributed = [line for line in lines if line.startswith("span:")]
        total = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        span_samples = sum(int(line.rsplit(" ", 1)[1])
                           for line in attributed)
        assert total > 0
        assert span_samples / total >= 0.9
