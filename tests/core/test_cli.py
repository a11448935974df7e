"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for argv in (["info"], ["experiments"],
                     ["quickstart", "--providers", "4"],
                     ["aggregate", "--kind", "sum"],
                     ["faults", "crash-execute"]):
            args = parser.parse_args(argv)
            assert callable(args.handler)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_bad_aggregate_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["aggregate", "--kind", "median"])

    def test_unknown_fault_scenario_rejected(self, capsys):
        # The handler, not the parser, knows the names (the parser imports
        # nothing from repro.core): exit 2, listing every valid one.
        from repro.core.resilience import SCENARIOS

        assert main(["faults", "meteor-strike"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "meteor-strike" in captured.err
        assert ", ".join(sorted(SCENARIOS)) in captured.err


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "repro.core" in output
        assert "ICDE 2021" in output

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        output = capsys.readouterr().out
        assert "E17" in output
        assert "bench_e5_gossip_vs_federated.py" in output
        # The listing is what `repro bench` discovers, not a second table.
        from repro.bench import discover

        listed = [line.split()[0] for line in output.splitlines()
                  if line.startswith("  ")]
        assert listed == list(discover())
        assert {"E23", "E24", "SRC", "CRYPTO"} <= set(listed)
        assert listed.index("E2") < listed.index("E10")

    def test_aggregate_mean(self, capsys):
        assert main(["aggregate", "--kind", "mean", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "statistic:" in output

    def test_aggregate_with_dp(self, capsys):
        assert main(["aggregate", "--kind", "mean", "--dp-epsilon", "1.0",
                     "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "epsilon = 1.0" in output

    def test_quickstart_small(self, capsys):
        code = main(["quickstart", "--providers", "4", "--executors", "1",
                     "--seed", "5"])
        assert code == 0
        output = capsys.readouterr().out
        assert "audit clean: True" in output


class TestFaults:
    def test_crash_execute_recovers(self, capsys):
        assert main(["faults", "crash-execute", "--seed", "5"]) == 0
        output = capsys.readouterr().out
        assert "outcome: settled_degraded" in output
        assert "recovery: degrade in execute" in output
        assert "blacklisted executors:" in output
        assert "rewards paid: 600,000" in output

    def test_no_recovery_baseline_fails(self, capsys):
        assert main(["faults", "crash-execute", "--seed", "5",
                     "--no-recovery"]) == 1
        output = capsys.readouterr().out
        assert "recovery policy: off (baseline)" in output
        assert "outcome: failed" in output
        assert "escrow refunded to consumer: 600,000" in output

    def test_json_mode(self, capsys):
        import json

        assert main(["faults", "drop-submission", "--seed", "5",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "settled"
        assert payload["faults_injected"] == 1
        assert [r["action"] for r in payload["recoveries"]] == ["retry"]
        assert payload["rewards_paid"] == 600_000

    def test_trace_records_fault_and_recovery_events(self, tmp_path,
                                                     capsys):
        from repro.core.events import read_jsonl_events
        from tests.telemetry.exposition_oracle import parse_prometheus

        path = str(tmp_path / "faults.jsonl")
        assert main(["faults", "crash-execute", "--seed", "5",
                     "--trace", path]) == 0
        capsys.readouterr()
        names = {event.name for event in read_jsonl_events(path)}
        assert "fault.injected" in names
        assert "recovery.degrade" in names
        assert "session.completed" in names
        # The sidecar snapshot carries the recovery counters into the
        # Prometheus exposition (what the CI smoke job greps for).
        assert main(["metrics", path + ".metrics.json"]) == 0
        output = capsys.readouterr().out
        samples = parse_prometheus(output)
        # >= because the process-global registry accumulates across the
        # other fault runs in this test module.
        assert samples[("pds2_faults_injected_total",
                        (("kind", "crash_execute"),))] >= 1.0
        assert samples[("pds2_lifecycle_recovery_total",
                        (("action", "degrade"),))] >= 1.0
        assert samples[("pds2_lifecycle_sessions_total",
                        (("outcome", "degraded"),))] >= 1.0


class TestTrace:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("trace") / "run.jsonl")
        assert main(["quickstart", "--providers", "3", "--executors", "1",
                     "--seed", "6", "--trace", path]) == 0
        return path

    def test_quickstart_writes_trace(self, trace_path):
        from repro.core.events import read_jsonl_events

        events = read_jsonl_events(trace_path)
        assert events
        phases = {e.phase for e in events if e.session_id}
        # One event minimum for every lifecycle phase.
        assert {"deploy", "match", "register_executors", "attest_and_submit",
                "start_execution", "execute", "aggregate", "settle",
                "audit"} <= phases

    def test_trace_replays_timeline(self, trace_path, capsys):
        assert main(["trace", trace_path]) == 0
        output = capsys.readouterr().out
        assert "session-0001-cli-quickstart" in output
        assert "chain.block_mined" in output
        assert "total gas:" in output

    def test_trace_unknown_session(self, trace_path, capsys):
        assert main(["trace", trace_path, "--session", "nope"]) == 1
        assert "not in trace" in capsys.readouterr().err

    def test_trace_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestTelemetryCommands:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("telemetry") / "run.jsonl")
        assert main(["quickstart", "--providers", "3", "--executors", "1",
                     "--seed", "6", "--trace", path]) == 0
        return path

    def test_quickstart_writes_metrics_sidecar(self, trace_path):
        import json

        with open(trace_path + ".metrics.json", encoding="utf-8") as fh:
            snapshot = json.load(fh)
        assert snapshot["format"] == "pds2-metrics-snapshot/2"
        names = {metric["name"] for metric in snapshot["metrics"]}
        assert "pds2_chain_blocks_mined_total" in names
        assert "pds2_crypto_sign_total" in names

    def test_metrics_from_snapshot_is_valid_exposition(self, trace_path,
                                                       capsys):
        from tests.telemetry.exposition_oracle import parse_prometheus

        assert main(["metrics", trace_path + ".metrics.json"]) == 0
        output = capsys.readouterr().out
        samples = parse_prometheus(output)  # raises on malformed lines
        assert samples
        assert any(name == "pds2_chain_blocks_mined_total"
                   for name, _ in samples)

    def test_metrics_from_bare_trace_replays_events(self, trace_path,
                                                    capsys):
        assert main(["metrics", trace_path]) == 0
        output = capsys.readouterr().out
        assert "pds2_events_total" in output
        assert "pds2_span_sim_duration" in output

    def test_metrics_json_mode_round_trips(self, trace_path, capsys):
        import json

        from repro.telemetry import MetricsRegistry

        assert main(["metrics", trace_path + ".metrics.json", "--json"]) == 0
        output = capsys.readouterr().out
        payload = json.loads(output)  # pure JSON, no prose mixed in
        rebuilt = MetricsRegistry.from_snapshot(payload["snapshot"])
        assert rebuilt.get("pds2_chain_blocks_mined_total").total() > 0

    def test_metrics_missing_file(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "absent.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_metrics_prints_totals_of_a_per_session_sidecar(self, capsys):
        # A sidecar written when every sample was split per session.
        from tests.telemetry.test_metrics import FIXTURES

        assert main(["metrics",
                     str(FIXTURES / "e1_a83fef1.metrics.json")]) == 0
        output = capsys.readouterr().out
        assert 'pds2_crypto_scalar_mult_total{kind="double_base"} 66' in output
        assert "session_id" not in output

    def test_metrics_rejects_a_damaged_snapshot(self, tmp_path, capsys):
        path = tmp_path / "cut.metrics.json"
        path.write_text('{"format": "pds2-metrics-snapshot/2", "metrics": '
                        '[{"name": "pds2_x_total", "type": "counter"}]}')
        assert main(["metrics", str(path)]) == 1
        assert "rejected" in capsys.readouterr().err

    def test_spans_renders_nested_phase_tree(self, trace_path, capsys):
        assert main(["spans", trace_path]) == 0
        output = capsys.readouterr().out
        assert "lifecycle.session" in output
        for phase in ("deploy", "match", "register_executors",
                      "attest_and_submit", "start_execution", "execute",
                      "aggregate", "settle", "audit"):
            assert f"lifecycle.phase.{phase}" in output
        assert "├─" in output and "└─" in output

    def test_spans_json_mode(self, trace_path, capsys):
        import json

        assert main(["spans", trace_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["span_count"] == len(payload["spans"])
        names = {span["name"] for span in payload["spans"]}
        assert "lifecycle.session" in names

    def test_spans_empty_trace_errors(self, tmp_path, capsys):
        import json

        path = tmp_path / "nospans.jsonl"
        record = {"session_id": "s", "phase": "p", "name": "not.a.span",
                  "sequence": 1, "wall_time": 0.0, "sim_clock": 0.0}
        path.write_text(json.dumps(record) + "\n")
        assert main(["spans", str(path)]) == 1
        assert "no finished spans" in capsys.readouterr().err


class TestMalformedTraceFiles:
    """Valid JSON of the wrong shape: a typed error and one line on stderr
    from ``trace``, ``spans`` and ``metrics`` — never a traceback."""

    EVENT = {"session_id": "s-1", "phase": "deploy", "name": "phase.started",
             "sequence": 1, "wall_time": 0.5, "sim_clock": 1.0}

    @pytest.mark.parametrize("command", ["trace", "spans", "metrics"])
    @pytest.mark.parametrize("line", ["{}", "[1, 2]", '{"session_id": "s"}',
                                      '"a string"'],
                             ids=["empty-object", "list", "missing-keys",
                                  "string"])
    def test_wrong_shape_exits_one_with_one_line(self, tmp_path, capsys,
                                                 command, line):
        import json

        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(self.EVENT) + "\n" + line + "\n")
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "line 2" in captured.err or "record 2" in captured.err

    @pytest.mark.parametrize("command", ["trace", "spans", "metrics"])
    def test_mid_file_garbage_exits_one(self, tmp_path, capsys, command):
        import json

        good = json.dumps(self.EVENT)
        path = tmp_path / "torn-middle.jsonl"
        path.write_text(good + "\n" + good[:20] + "\n" + good + "\n")
        assert main([command, str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_a_future_unknown_key_is_ignored(self, tmp_path, capsys):
        import json

        from repro.core.events import read_jsonl_events

        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({**self.EVENT, "shard": "v9"}) + "\n")
        (event,) = read_jsonl_events(str(path))
        assert (event.session_id, event.name) == ("s-1", "phase.started")
        assert main(["trace", str(path)]) == 0
        assert "phase.started" in capsys.readouterr().out
        assert main(["metrics", str(path)]) == 0


class TestGossipCommand:
    def test_parses(self):
        args = build_parser().parse_args(["gossip", "--nodes", "16"])
        assert callable(args.handler)

    def test_bad_engine_rejected(self):
        """The engine is picked from the inputs; the flag is gone."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gossip", "--engine", "kernel"])

    def test_engines_agree_byte_for_byte(self, capsys, monkeypatch):
        """The CLI lands on the kernels; with the per-node engine swapped in
        under it, the same command prints the same numbers."""
        import json

        import repro.ml.gossip as gossip
        from tests.kernels.test_differential import build

        def per_node(factory, parts, test, config, seed, churn):
            return build(gossip.GossipNodeTrainer, parts, test, config,
                         seed=seed, churn=churn, model_factory=factory)

        argv = ["gossip", "--nodes", "12", "--per-node", "16",
                "--duration", "100", "--eval-interval", "50",
                "--seed", "5", "--json"]
        assert main(argv) == 0
        kernel = json.loads(capsys.readouterr().out)
        monkeypatch.setattr(gossip, "GossipTrainer", per_node)
        assert main(argv) == 0
        objects = json.loads(capsys.readouterr().out)
        for key in ("history", "final_accuracy", "events_processed",
                    "bytes_delivered"):
            assert kernel[key] == objects[key]

    def test_churn_flag_drops_messages(self, capsys):
        import json

        code = main(["gossip", "--nodes", "12", "--per-node", "16",
                     "--duration", "200", "--eval-interval", "100",
                     "--availability", "0.6", "--seed", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["messages_dropped"] > 0


@pytest.fixture(scope="module")
def batch_root(tmp_path_factory):
    """One small chaos batch shared by the trace/top/spans CLI tests."""
    root = str(tmp_path_factory.mktemp("cli-batch") / "batch")
    assert main(["batch", "submit", root, "--jobs", "4", "--workers", "2",
                 "--kill-worker-after", "1"]) == 0
    return root


class TestTraceOpsCommands:
    def test_new_commands_parse(self):
        parser = build_parser()
        for argv in (["top", "some/root", "--watch", "2",
                      "--slo-settled", "0.9"],
                     ["batch", "trace", "some/root", "--chrome", "x.json"],
                     ["spans", "trace.jsonl", "--trace", "abc",
                      "--session", "s"]):
            args = parser.parse_args(argv)
            assert callable(args.handler)

    def test_batch_status_follows_the_journal(self, batch_root, tmp_path,
                                              capsys):
        # A resumed batch must not look finished: status is read from the
        # journal, never from an index.json an earlier run (or an older
        # version) left behind.
        import json
        import os
        import shutil

        from repro.control import JobsDB

        root = str(tmp_path / "resumed")
        shutil.copytree(batch_root, root)
        assert main(["batch", "status", root]) == 0
        assert "batch status: done" in capsys.readouterr().out
        with open(os.path.join(root, "index.json"), "w") as handle:
            json.dump({"format": "pds2-batch-index/1",
                       "batch": {"status": "done"}, "jobs": {},
                       "counts": {"settled": 4}, "divergent": []}, handle)
        db = JobsDB.open(root)
        db.append({"type": "batch", "status": "running"})
        db.append({"type": "job", "job_id": "job-00000",
                   "status": "requeued", "attempt": 1})
        db.close()
        assert main(["batch", "status", root]) == 0
        assert "batch status: running" in capsys.readouterr().out

    def test_top_panel(self, batch_root, capsys):
        assert main(["top", batch_root]) == 0
        output = capsys.readouterr().out
        assert f"batch {batch_root}" in output
        assert "status=done" in output
        assert "slo: settled=1.000" in output
        assert "worker_deaths=1" in output

    def test_top_json_snapshot(self, batch_root, capsys):
        assert main(["top", batch_root, "--json"]) == 0
        import json as _json
        payload = _json.loads(capsys.readouterr().out)
        snap = payload["snapshot"]
        assert snap["batch_status"] == "done"
        assert snap["jobs"] == 4
        assert snap["worker_deaths"] == 1
        assert len(snap["trace_id"]) == 32

    def test_batch_trace_report(self, batch_root, capsys):
        assert main(["batch", "trace", batch_root]) == 0
        output = capsys.readouterr().out
        assert "completeness: 1.000" in output
        assert "orphans: 0" in output
        assert "critical path — trace" in output

    def test_batch_trace_chrome_export(self, batch_root, tmp_path, capsys):
        out_path = str(tmp_path / "chrome.json")
        assert main(["batch", "trace", batch_root,
                     "--chrome", out_path]) == 0
        capsys.readouterr()
        import json as _json
        with open(out_path, encoding="utf-8") as handle:
            doc = _json.load(handle)
        assert doc["otherData"]["format"] == "pds2-chrome-trace/1"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_batch_trace_json_mode(self, batch_root, capsys):
        assert main(["batch", "trace", batch_root, "--json"]) == 0
        import json as _json
        payload = _json.loads(capsys.readouterr().out)
        assert payload["completeness"] == 1.0
        assert payload["orphans"] == 0
        assert payload["lost_workers"] == 1

    def test_spans_reads_batch_directory(self, batch_root, capsys):
        assert main(["spans", batch_root]) == 0
        output = capsys.readouterr().out
        assert "batch.execute" in output
        assert "batch.job" in output

    def test_spans_trace_filter(self, batch_root, capsys):
        assert main(["spans", batch_root, "--trace", "0" * 32]) == 1
        capsys.readouterr()

    def test_spans_reads_sidecar_file(self, batch_root, capsys):
        import os as _os
        sidecars = sorted(_os.listdir(_os.path.join(batch_root, "spans")))
        assert main(["spans",
                     _os.path.join(batch_root, "spans", sidecars[-1])]) == 0
        assert "batch.job" in capsys.readouterr().out
