"""Tests for the benchmark harness: schema, runner, comparator, CLI gate.

The comparator's edge cases are the CI gate's correctness: strictly-beyond
thresholds, coverage that must never silently shrink (missing experiments
and metrics), errored experiments, zero baselines, and new experiments
that ride along ungated until baselined.
"""

from __future__ import annotations

import json
import math
import textwrap

import pytest

from repro.bench import (
    BENCH_FORMAT,
    ComparisonReport,
    Experiment,
    Metric,
    MetricDelta,
    compare_trajectories,
    condense,
    default_bench_dir,
    discover,
    git_sha,
    higher_is_better,
    info,
    lower_is_better,
    provenance,
    run_experiment,
    run_suite,
    source_lines,
)
from repro.bench import runner


def entry(metrics: dict[str, Metric], status: str = "ok") -> dict:
    return {
        "title": "t", "status": status, "wall_s": 0.1,
        "metrics": {name: m.to_dict() for name, m in metrics.items()},
        "telemetry": {},
    }


def trajectory(experiments: dict[str, dict]) -> dict:
    return {"format": BENCH_FORMAT, "suite": "quick",
            "provenance": {}, "experiments": experiments}


class TestSchema:
    def test_metric_round_trip(self):
        metric = lower_is_better(1234.5, unit="gas", threshold_pct=2.5)
        restored = Metric.from_dict(metric.to_dict())
        assert restored == metric

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            Metric(value=1.0, direction="sideways")

    def test_helper_defaults(self):
        assert lower_is_better(1).threshold_pct == 10.0
        assert higher_is_better(1).threshold_pct == 5.0
        assert info(1).threshold_pct is None
        assert info(1).direction == "info"

    def test_git_sha_present_in_checkout(self):
        assert git_sha() != "unknown"
        assert provenance()["git_sha"] == git_sha()

    def test_source_lines_counts_python_under_a_root(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
        (tmp_path / "pkg" / "b.py").write_text("z = 3")
        (tmp_path / "notes.txt").write_text("not\ncounted\n")
        assert source_lines(tmp_path) == 3
        # The default root is the installed package, this very checkout.
        assert source_lines() > 10_000

    def test_condense_sums_counters_and_histogram_counts(self):
        snapshot = {"metrics": [
            {"name": "pds2_chain_gas_total", "type": "counter",
             "samples": [{"value": 100}, {"value": 50}]},
            {"name": "pds2_gossip_merges_total", "type": "histogram",
             "samples": [{"count": 7, "sum": 1.0}]},
            {"name": "pds2_unlisted_total", "type": "counter",
             "samples": [{"value": 9}]},
        ]}
        totals = condense(snapshot)
        assert totals == {"pds2_chain_gas_total": 150.0,
                          "pds2_gossip_merges_total": 7.0}


class TestMetricDelta:
    def test_zero_baseline_growth_is_infinite_regression(self):
        delta = MetricDelta("E", "m", baseline=0.0, current=5.0,
                            direction="lower", threshold_pct=1.0)
        assert delta.pct_change == math.inf
        assert delta.regressed

    def test_zero_baseline_zero_current_passes(self):
        delta = MetricDelta("E", "m", baseline=0.0, current=0.0,
                            direction="lower", threshold_pct=1.0)
        assert delta.pct_change == 0.0
        assert not delta.regressed


class TestCompare:
    def base(self) -> dict:
        return trajectory({"E1": entry({
            "gas": lower_is_better(1000, unit="gas", threshold_pct=10.0),
            "score": higher_is_better(0.80, threshold_pct=5.0),
            "wall_s": info(3.0, unit="s"),
        })})

    def test_identical_runs_are_ok(self):
        report = compare_trajectories(self.base(), self.base())
        assert report.ok
        assert report.compared_metrics == 2
        assert "verdict: OK" in report.render()

    def test_beyond_threshold_regresses(self):
        current = trajectory({"E1": entry({
            "gas": lower_is_better(1101, unit="gas"),   # +10.1% > 10%
            "score": higher_is_better(0.80),
        })})
        report = compare_trajectories(self.base(), current)
        assert not report.ok
        assert [d.metric for d in report.regressions] == ["gas"]
        rendered = report.render()
        assert "REGRESSIONS" in rendered
        assert "verdict: REGRESSION" in rendered

    def test_exactly_at_threshold_passes(self):
        # Exactly-representable values so "strictly beyond" is exact.
        baseline = trajectory({"E1": entry({
            "gas": lower_is_better(1000, threshold_pct=10.0),
            "score": higher_is_better(100, threshold_pct=5.0),
        })})
        current = trajectory({"E1": entry({
            "gas": lower_is_better(1100.0),             # exactly +10%
            "score": higher_is_better(95.0),            # exactly -5%
        })})
        assert compare_trajectories(baseline, current).ok

    def test_higher_direction_decay_regresses(self):
        current = trajectory({"E1": entry({
            "gas": lower_is_better(1000),
            "score": higher_is_better(0.75),            # -6.25% < -5%
        })})
        report = compare_trajectories(self.base(), current)
        assert [d.metric for d in report.regressions] == ["score"]

    def test_improvement_is_listed_not_gated(self):
        current = trajectory({"E1": entry({
            "gas": lower_is_better(500),
            "score": higher_is_better(0.95),
        })})
        report = compare_trajectories(self.base(), current)
        assert report.ok
        assert len(report.improvements) == 2

    def test_info_metric_never_gates(self):
        current = trajectory({"E1": entry({
            "gas": lower_is_better(1000),
            "score": higher_is_better(0.80),
            "wall_s": info(300.0, unit="s"),            # 100x slower: fine
        })})
        assert compare_trajectories(self.base(), current).ok

    def test_missing_gated_metric_regresses(self):
        current = trajectory({"E1": entry({
            "gas": lower_is_better(1000),
        })})
        report = compare_trajectories(self.base(), current)
        assert not report.ok
        assert report.missing_metrics == [("E1", "score")]

    def test_missing_experiment_regresses(self):
        report = compare_trajectories(self.base(), trajectory({}))
        assert not report.ok
        assert report.missing_experiments == ["E1"]

    def test_errored_current_experiment_regresses(self):
        current = trajectory({"E1": entry({}, status="error: Boom: x")})
        report = compare_trajectories(self.base(), current)
        assert not report.ok
        assert report.errored_experiments
        assert "Boom" in report.errored_experiments[0]

    def test_errored_baseline_experiment_is_skipped(self):
        baseline = trajectory({"E1": entry({}, status="error: Boom: x")})
        report = compare_trajectories(baseline, trajectory({}))
        assert report.ok

    def test_new_experiment_listed_but_not_gated(self):
        current = self.base()
        current["experiments"]["E99"] = entry({"x": lower_is_better(1)})
        report = compare_trajectories(self.base(), current)
        assert report.ok
        assert report.new_experiments == ["E99"]
        assert "not gated until baselined" in report.render()

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            compare_trajectories({"format": "something-else"}, self.base())

    def test_report_ok_property_edges(self):
        assert ComparisonReport().ok
        assert not ComparisonReport(missing_experiments=["E1"]).ok


class TestRunner:
    def test_run_experiment_envelope(self):
        experiment = Experiment("T1", "tiny", lambda quick: {
            "metrics": {"answer": lower_is_better(42, unit="u")},
        })
        entry = run_experiment(experiment, quick=True)
        assert entry["status"] == "ok"
        assert entry["metrics"]["answer"]["value"] == 42.0
        assert "wall_s" in entry["metrics"]
        assert entry["metrics"]["wall_s"]["direction"] == "info"

    def test_run_experiment_records_errors(self):
        def boom(quick):
            raise RuntimeError("deliberate")

        entry = run_experiment(Experiment("T2", "boom", boom))
        assert entry["status"] == "error: RuntimeError: deliberate"
        assert "traceback" in entry
        assert "deliberate" in entry["traceback"]

    def test_quick_suite_rewrites_no_result_and_keeps_telemetry(self):
        # The CI gate once rewrote three tracked files under results/ and
        # reset CRYPTO's registry inside the envelope (telemetry {}).
        results = default_bench_dir() / "results"
        before = {path.name: path.read_bytes() for path in results.iterdir()}
        suite = run_suite(suite="quick", only=["CRYPTO"])
        after = {path.name: path.read_bytes() for path in results.iterdir()}
        assert after == before
        telemetry = suite["experiments"]["CRYPTO"]["telemetry"]
        assert "pds2_crypto_scalar_mult_total" in telemetry

    def test_discover_real_benchmarks(self):
        experiments = discover()
        assert len(experiments) >= 6
        assert "E1" in experiments
        for experiment_id, experiment in experiments.items():
            assert experiment.experiment_id == experiment_id
            assert callable(experiment.run)

    def test_run_suite_on_synthetic_dir(self, tmp_path):
        (tmp_path / "bench_tinyone.py").write_text(textwrap.dedent("""
            from repro.bench import Experiment, lower_is_better

            def run_bench(quick=False):
                return {"metrics": {"cost": lower_is_better(10)}}

            EXPERIMENT = Experiment("T10", "tiny one", run_bench)
        """))
        (tmp_path / "bench_tinytwo.py").write_text(textwrap.dedent("""
            from repro.bench import Experiment, higher_is_better

            def run_bench(quick=False):
                return {"metrics": {"score": higher_is_better(0.9)}}

            EXPERIMENT = Experiment("T2", "tiny two", run_bench)
        """))
        (tmp_path / "bench_helperonly.py").write_text("HELPER = 1\n")
        messages = []
        suite = run_suite(suite="quick", bench_dir=tmp_path,
                          progress=messages.append)
        assert suite["format"] == BENCH_FORMAT
        assert list(suite["experiments"]) == ["T2", "T10"]  # numeric sort
        assert suite["provenance"]["git_sha"] == git_sha()
        assert any("tiny one" in message for message in messages)

    def test_run_suite_rejects_unknown_ids(self, tmp_path):
        (tmp_path / "bench_tinythree.py").write_text(textwrap.dedent("""
            from repro.bench import Experiment

            EXPERIMENT = Experiment("T30", "t", lambda quick: {})
        """))
        with pytest.raises(ValueError, match="unknown experiment"):
            run_suite(bench_dir=tmp_path, only=["NOPE"])

    def test_duplicate_ids_rejected(self, tmp_path):
        body = textwrap.dedent("""
            from repro.bench import Experiment

            EXPERIMENT = Experiment("DUP", "t", lambda quick: {})
        """)
        (tmp_path / "bench_dupa.py").write_text(body)
        (tmp_path / "bench_dupb.py").write_text(body)
        with pytest.raises(ValueError, match="duplicate"):
            discover(tmp_path)


def write_claims_bench(bench_dir, stem: str, experiment_id: str,
                       claims: str) -> None:
    """A fake ``bench_<stem>.py``: one metric, a two-line table, a signed
    transaction (so the registry has something to condense) and
    ``claims``, a dict literal."""
    bench_dir.mkdir(exist_ok=True)
    (bench_dir / f"bench_{stem}.py").write_text(textwrap.dedent(f"""
        from repro.bench import Experiment, lower_is_better
        from repro.crypto.ecdsa import PrivateKey

        def run_bench(quick=False):
            PrivateKey.from_seed(b"claims").sign(b"table")
            return {{"metrics": {{"cost": lower_is_better(10)}},
                    "lines": ["header", "row"],
                    "claims": {claims}}}

        EXPERIMENT = Experiment("{experiment_id}", "claims", run_bench)
    """))


class TestClaims:
    """A claim is a checked bool: a gated 0/1 metric under its name, listed
    in the entry when false, and a failed ``repro bench``."""

    @staticmethod
    def experiment(**claims) -> Experiment:
        return Experiment("C", "claims", lambda quick: {
            "metrics": {"cost": lower_is_better(10)},
            "lines": ["header", "row"],
            "claims": claims,
        })

    def test_true_claim_is_a_gated_metric_of_one(self):
        entry = run_experiment(self.experiment(holds=True))
        assert entry["status"] == "ok"
        assert entry["metrics"]["holds"] == higher_is_better(
            1.0, threshold_pct=1.0).to_dict()
        assert entry["false_claims"] == []

    def test_false_claim_is_listed_in_the_entry(self):
        entry = run_experiment(self.experiment(holds=True, margin=False))
        assert entry["metrics"]["margin"]["value"] == 0.0
        assert entry["false_claims"] == ["margin"]

    def test_lines_land_in_the_entry(self):
        assert run_experiment(self.experiment())["lines"] == ["header",
                                                               "row"]

    @pytest.mark.parametrize("holds", [True, False])
    def test_claim_compares_against_a_baselined_metric(self, holds):
        baseline = trajectory({"C": entry({
            "audit_clean": higher_is_better(1.0, threshold_pct=1.0),
        })})
        current = trajectory({
            "C": run_experiment(self.experiment(audit_clean=holds)),
        })
        report = compare_trajectories(baseline, current)
        assert report.compared_metrics == 1
        assert report.ok is holds
        assert [delta.metric for delta in report.regressions] == (
            [] if holds else ["audit_clean"])

    def test_only_the_full_suite_writes_results(self, tmp_path):
        write_claims_bench(tmp_path, "tablewriter", "T40", '{"holds": True}')
        run_suite(suite="quick", bench_dir=tmp_path)
        assert not (tmp_path / "results").exists()
        run_suite(suite="full", bench_dir=tmp_path)
        results = tmp_path / "results"
        assert sorted(path.name for path in results.iterdir()) == [
            "t40.metrics.json", "t40.txt"]
        table = (results / "t40.txt").read_text().splitlines()
        assert table[:4] == ["T40: claims", "===========", "header", "row"]
        assert any(line.split() == ["pds2_crypto_sign_total", "1"]
                   for line in table)
        sidecar = json.loads((results / "t40.metrics.json").read_text())
        assert sidecar["provenance"]["git_sha"] == git_sha()
        assert any(metric["name"] == "pds2_crypto_sign_total"
                   for metric in sidecar["metrics"])

    @pytest.fixture
    def false_claim_bench(self, tmp_path, monkeypatch):
        bench_dir = tmp_path / "benchmarks"
        write_claims_bench(bench_dir, "falseclaim", "C9",
                           '{"holds": True, "margin": False}')
        monkeypatch.setattr(runner, "default_bench_dir", lambda: bench_dir)
        return bench_dir

    def test_false_claim_fails_the_cli_and_is_named(self, false_claim_bench,
                                                    tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "current.json"
        assert main(["bench", "-o", str(out_path)]) == 1
        assert "false claim(s): C9/margin" in capsys.readouterr().err
        # With --compare the comparison itself passes; the claim still fails.
        assert main(["bench", "-o", str(tmp_path / "again.json"),
                     "--compare", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert "verdict: OK" in captured.out
        assert "false claim(s): C9/margin" in captured.err


class TestCLIGate:
    """`python -m repro bench --compare` must exit nonzero, with a readable
    report, when the current run regresses against the baseline."""

    def _perturbed_baseline(self, current: dict) -> dict:
        baseline = json.loads(json.dumps(current))
        for entry in baseline["experiments"].values():
            for metric in entry["metrics"].values():
                if metric["direction"] == "lower":
                    # Pretend the past was far cheaper than the present.
                    metric["value"] = metric["value"] / 2 - 1.0
        return baseline

    def test_compare_gate_exits_nonzero_on_regression(self, tmp_path,
                                                      capsys):
        from repro.cli import main

        out_path = tmp_path / "current.json"
        # E4 and E13 are pure cost-model/VM experiments: sub-second.
        assert main(["bench", "--only", "E4", "--only", "E13",
                     "-o", str(out_path)]) == 0
        current = json.loads(out_path.read_text())
        assert current["format"] == BENCH_FORMAT
        assert set(current["experiments"]) == {"E4", "E13"}

        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            json.dumps(self._perturbed_baseline(current)))
        capsys.readouterr()
        code = main(["bench", "--only", "E4", "--only", "E13",
                     "-o", str(out_path),
                     "--compare", str(baseline_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSIONS (beyond threshold):" in captured.out
        assert "verdict: REGRESSION" in captured.out

    def test_compare_gate_passes_against_own_output(self, tmp_path,
                                                    capsys):
        from repro.cli import main

        out_path = tmp_path / "current.json"
        assert main(["bench", "--only", "E4", "-o", str(out_path)]) == 0
        code = main(["bench", "--only", "E4",
                     "-o", str(tmp_path / "second.json"),
                     "--compare", str(out_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "verdict: OK" in captured.out

    def test_unreadable_baseline_is_usage_error(self, tmp_path):
        from repro.cli import main

        assert main(["bench", "--only", "E4",
                     "-o", str(tmp_path / "out.json"),
                     "--compare", str(tmp_path / "missing.json")]) == 2
