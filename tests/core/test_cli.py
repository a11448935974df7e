"""Tests for the command-line interface."""

from __future__ import annotations

import os

import pytest

from repro.cli import build_parser, main

QUICKSTART = ["quickstart", "--providers", "3", "--executors", "1",
              "--seed", "6", "--run"]
FAULTS = ["faults", "crash-execute", "--seed", "5", "--run"]
CHAIN = ["chain", "run", "--blocks", "3", "--seed", "7"]
BATCH = ["batch", "submit", "--jobs", "4", "--workers", "2",
         "--kill-worker-after", "1"]


@pytest.fixture(scope="module")
def quickstart_run(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cli-quickstart") / "run")
    assert main(QUICKSTART + [root]) == 0
    return root


@pytest.fixture(scope="module")
def faults_run(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cli-faults") / "run")
    assert main(FAULTS + [root]) == 0
    return root


@pytest.fixture(scope="module")
def chain_run(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cli-chain") / "run")
    assert main(CHAIN + [root]) == 0
    return root


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

    @pytest.mark.parametrize("argv,flag,minimum", [
        (["quickstart", "--executors", "0"], "--executors", 1),
        (["faults", "crash-execute", "--executors", "0"], "--executors", 1),
        (["profile", "--executors", "0"], "--executors", 1),
        (["quickstart", "--providers", "0"], "--providers", 1),
        (["batch", "submit", "RUN", "--workers", "0"], "--workers", 1),
        (["batch", "submit", "RUN", "--jobs", "0"], "--jobs", 1),
        (["chain", "run", "RUN", "--wallets", "0"], "--wallets", 1),
        (["gossip", "--nodes", "1"], "--nodes", 2),
        (["gossip", "--per-node", "0"], "--per-node", 1),
        (["gossip", "--batch-size", "0"], "--batch-size", 1),
        (["profile", "--interval", "0"], "--interval", 1),
        (["batch", "submit", "RUN", "--fault-every", "0"], "--fault-every", 1),
        (["batch", "submit", "RUN", "--max-attempts", "0"],
         "--max-attempts", 1),
        (["chain", "run", "RUN", "--blocks", "0"], "--blocks", 1),
    ], ids=["quickstart-executors", "faults-executors", "profile-executors",
            "quickstart-providers", "batch-workers", "batch-jobs",
            "chain-wallets", "gossip-nodes", "gossip-per-node",
            "gossip-batch-size", "profile-interval", "batch-fault-every",
            "batch-max-attempts", "chain-blocks"])
    def test_count_flag_below_its_minimum_is_refused_at_parse(
            self, tmp_path, capsys, argv, flag, minimum):
        run = tmp_path / "run"
        argv = [str(run) if arg == "RUN" else arg for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith(
            f"argument {flag}: must be at least {minimum}, "
            f"got {minimum - 1}")
        assert not run.exists()  # refused before any RUN is created

    @pytest.mark.parametrize("argv,flag,refusal", [
        (["gossip", "--eval-interval", "0"], "--eval-interval",
         "must be a finite number above 0, got 0"),
        (["gossip", "--eval-interval", "-5"], "--eval-interval",
         "must be a finite number above 0, got -5"),
        (["gossip", "--duration", "nan"], "--duration",
         "must be a finite number above 0, got nan"),
        (["gossip", "--availability", "0"], "--availability",
         "must be in (0, 1], got 0"),
        (["profile", "--hz", "0"], "--hz",
         "must be a finite number above 0, got 0"),
        (["batch", "submit", "RUN", "--fault-rate", "2.5"], "--fault-rate",
         "must be in [0, 1], got 2.5"),
        (["top", "RUN", "--watch", "-1"], "--watch",
         "must be a finite number above 0, got -1"),
    ], ids=["gossip-eval-interval-0", "gossip-eval-interval-negative",
            "gossip-duration-nan", "gossip-availability", "profile-hz",
            "batch-fault-rate", "top-watch"])
    def test_impossible_number_is_refused_at_parse(self, tmp_path, capsys,
                                                   argv, flag, refusal):
        run = tmp_path / "run"
        argv = [str(run) if arg == "RUN" else arg for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith(f"argument {flag}: {refusal}")
        assert not run.exists()


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

    def test_trace_records_fault_and_recovery_events(self, faults_run,
                                                     capsys):
        from repro.core.events import read_jsonl_events
        from tests.telemetry.exposition_oracle import parse_prometheus

        names = {event.name for event in read_jsonl_events(
            os.path.join(faults_run, "events.jsonl"))}
        assert "fault.injected" in names
        assert "recovery.degrade" in names
        assert "session.completed" in names
        # The run's metrics snapshot carries the recovery counters into the
        # Prometheus exposition (what the CI smoke job greps for).
        assert main(["metrics", faults_run]) == 0
        output = capsys.readouterr().out
        samples = parse_prometheus(output)
        # >= because the process-global registry accumulates across the
        # other fault runs in this test module.
        assert samples[("pds2_faults_injected_total",
                        (("kind", "crash_execute"),))] >= 1.0
        assert samples[("pds2_lifecycle_recovery_total",
                        (("action", "degrade"),))] >= 1.0
        assert samples[("pds2_lifecycle_sessions_total",
                        (("outcome", "settled_degraded"),))] >= 1.0


class TestTrace:
    def test_quickstart_writes_trace(self, quickstart_run):
        from repro.core.events import read_jsonl_events

        events = read_jsonl_events(os.path.join(quickstart_run,
                                                "events.jsonl"))
        assert events
        phases = {e.phase for e in events if e.session_id}
        # One event minimum for every lifecycle phase.
        assert {"deploy", "match", "register_executors", "attest_and_submit",
                "start_execution", "execute", "aggregate", "settle",
                "audit"} <= phases

    def test_trace_replays_timeline(self, quickstart_run, capsys):
        assert main(["trace", quickstart_run]) == 0
        output = capsys.readouterr().out
        assert "session-0001-cli-quickstart" in output
        assert "chain.block_mined" in output
        assert "total gas:" in output

    def test_trace_unknown_session(self, quickstart_run, capsys):
        assert main(["trace", quickstart_run, "--session", "nope"]) == 1
        assert "not in trace" in capsys.readouterr().err

    def test_trace_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "absent")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestTelemetryCommands:
    def test_quickstart_writes_metrics_sidecar(self, quickstart_run):
        import json

        with open(os.path.join(quickstart_run, "metrics.json"),
                  encoding="utf-8") as fh:
            snapshot = json.load(fh)
        assert snapshot["format"] == "pds2-metrics-snapshot/2"
        assert snapshot["provenance"]["argv"]
        names = {metric["name"] for metric in snapshot["metrics"]}
        assert "pds2_chain_blocks_mined_total" in names
        assert "pds2_crypto_sign_total" in names

    def test_metrics_from_snapshot_is_valid_exposition(self, quickstart_run,
                                                       capsys):
        from tests.telemetry.exposition_oracle import parse_prometheus

        assert main(["metrics", quickstart_run]) == 0
        output = capsys.readouterr().out
        samples = parse_prometheus(output)  # raises on malformed lines
        assert samples
        assert any(name == "pds2_chain_blocks_mined_total"
                   for name, _ in samples)
        # The snapshot file itself goes through the same decoder.
        assert main(["metrics",
                     os.path.join(quickstart_run, "metrics.json")]) == 0
        assert capsys.readouterr().out == output

    def test_metrics_of_an_event_trace_is_refused(self, quickstart_run,
                                                  capsys):
        # Nothing replays events into a second registry: a JSONL trace is
        # not a snapshot, and the command says so in one line.
        assert main(["metrics",
                     os.path.join(quickstart_run, "events.jsonl")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "not valid JSON" in captured.err

    def test_metrics_json_mode_round_trips(self, quickstart_run, capsys):
        import json

        from repro.telemetry import MetricsRegistry
        from tests.telemetry.exposition_oracle import (
            metric_named,
            series_total,
        )

        assert main(["metrics", quickstart_run, "--json"]) == 0
        output = capsys.readouterr().out
        payload = json.loads(output)  # pure JSON, no prose mixed in
        rebuilt = MetricsRegistry.from_snapshot(payload["snapshot"])
        mined = metric_named(rebuilt, "pds2_chain_blocks_mined_total")
        assert series_total(mined) > 0

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

    def test_sim_mode_profile_samples_on_its_markets_clock(self, capsys):
        import json

        assert main(["profile", "--mode", "sim", "--providers", "3",
                     "--executors", "1", "--seed", "6", "--json"]) == 0
        profile = json.loads(capsys.readouterr().out)["profile"]
        assert profile["mode"] == "sim"
        assert profile["total_samples"] > 0
        assert profile["attributed_samples"] > 0

    def test_spans_renders_nested_phase_tree(self, quickstart_run, capsys):
        assert main(["spans", quickstart_run]) == 0
        output = capsys.readouterr().out
        assert "lifecycle.session" in output
        for phase in ("deploy", "match", "register_executors",
                      "attest_and_submit", "start_execution", "execute",
                      "aggregate", "settle", "audit"):
            assert f"lifecycle.phase.{phase}" in output
        assert "├─" in output and "└─" in output

    def test_spans_json_mode(self, quickstart_run, capsys):
        import json

        assert main(["spans", quickstart_run, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["span_count"] == len(payload["spans"])
        names = {span["name"] for span in payload["spans"]}
        assert "lifecycle.session" in names

    def test_spans_empty_trace_errors(self, tmp_path, capsys):
        import json

        record = {"session_id": "s", "phase": "p", "name": "not.a.span",
                  "sequence": 1, "wall_time": 0.0, "sim_clock": 0.0}
        (tmp_path / "events.jsonl").write_text(json.dumps(record) + "\n")
        assert main(["spans", str(tmp_path)]) == 1
        assert "no finished spans" in capsys.readouterr().err


class TestMalformedTraceFiles:
    """Valid JSON of the wrong shape in the file a reader opens: a typed
    error and one line on stderr from ``trace``, ``spans`` and ``metrics``
    — never a traceback."""

    EVENT = {"session_id": "s-1", "phase": "deploy", "name": "phase.started",
             "sequence": 1, "wall_time": 0.5, "sim_clock": 1.0}
    READS = {"trace": "events.jsonl", "spans": "events.jsonl",
             "metrics": "metrics.json"}

    @pytest.mark.parametrize("command", ["trace", "spans", "metrics"])
    @pytest.mark.parametrize("line", ["{}", "[1, 2]", '{"session_id": "s"}',
                                      '"a string"'],
                             ids=["empty-object", "list", "missing-keys",
                                  "string"])
    def test_wrong_shape_exits_one_with_one_line(self, tmp_path, capsys,
                                                 command, line):
        import json

        path = tmp_path / self.READS[command]
        path.write_text(json.dumps(self.EVENT) + "\n" + line + "\n")
        assert main([command, str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "line 2" in captured.err or "record 2" in captured.err

    @pytest.mark.parametrize("command", ["trace", "spans", "metrics"])
    def test_mid_file_garbage_exits_one(self, tmp_path, capsys, command):
        import json

        good = json.dumps(self.EVENT)
        path = tmp_path / self.READS[command]
        path.write_text(good + "\n" + good[:20] + "\n" + good + "\n")
        assert main([command, str(tmp_path)]) == 1
        assert "line 2" in capsys.readouterr().err

    SPAN = {"span_id": "sp-000001", "parent_id": "", "name": "x.y",
            "start_sim": 0.0, "end_sim": 1.0, "wall_ms": 2.0,
            "status": "ok", "error": "", "attributes": {}}

    @pytest.mark.parametrize("source", ["run-directory", "batch-sidecar"])
    @pytest.mark.parametrize("field, value", [("wall_ms", "abc"),
                                              ("attributes", [1, 2])])
    def test_a_malformed_span_record_exits_one(self, tmp_path, batch_root,
                                               capsys, source, field, value):
        import json
        import shutil

        span = {**self.SPAN, field: value}
        if source == "run-directory":
            root = tmp_path
            (root / "events.jsonl").write_text(json.dumps(
                {**self.EVENT, "name": "span.end", "data": span}) + "\n")
        else:
            root = tmp_path / "batch"
            shutil.copytree(batch_root, root)
            with open(root / "spans" / "w1.jsonl", "a",
                      encoding="utf-8") as sidecar:
                sidecar.write(json.dumps({**span, "type": "span"}) + "\n")
        assert main(["spans", str(root)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot read spans" in captured.err
        assert repr(field) in captured.err

    def test_a_future_unknown_key_is_ignored(self, tmp_path, capsys):
        import json

        from repro.core.events import read_jsonl_events
        from repro.telemetry import MetricsRegistry, snapshot

        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps({**self.EVENT, "shard": "v9"}) + "\n")
        (event,) = read_jsonl_events(str(path))
        assert (event.session_id, event.name) == ("s-1", "phase.started")
        assert main(["trace", str(tmp_path)]) == 0
        assert "phase.started" in capsys.readouterr().out
        registry = MetricsRegistry()
        registry.counter("pds2_x_total", "x").inc()
        (tmp_path / "metrics.json").write_text(json.dumps(
            {**snapshot(registry), "shard": "v9"}))
        assert main(["metrics", str(tmp_path)]) == 0


class TestGossipCommand:
    def test_parses(self):
        args = build_parser().parse_args(["gossip", "--nodes", "16"])
        assert callable(args.handler)

    def test_bad_engine_rejected(self):
        """The engine is picked from the inputs; the flag is gone."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gossip", "--engine", "kernel"])

    def test_engines_agree_byte_for_byte(self, capsys, monkeypatch):
        """The CLI lands on the kernels; with the per-node oracle swapped
        in under it, the same command prints the same numbers."""
        import json

        import repro.ml.gossip as gossip
        from tests.kernels.gossip_oracle import GossipNodeTrainer
        from tests.kernels.test_differential import build

        def per_node(factory, parts, test, config, seed, churn):
            return build(GossipNodeTrainer, parts, test, config,
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
    assert main(BATCH + [root]) == 0
    return root


class TestTraceOpsCommands:
    def test_new_commands_parse(self):
        parser = build_parser()
        for argv in (["top", "some/root", "--watch", "2"],
                     ["batch", "trace", "some/root", "--chrome", "x.json"],
                     ["spans", "some/root", "--trace", "abc",
                      "--session", "s"]):
            args = parser.parse_args(argv)
            assert callable(args.handler)

    def test_top_follows_the_journal(self, batch_root, tmp_path, capsys):
        # A resumed batch must not look finished: status is read from the
        # journal, never from an index.json an earlier run (or an older
        # version) left behind.
        import json
        import shutil

        from repro.control import JobsDB

        root = str(tmp_path / "resumed")
        shutil.copytree(batch_root, root)
        assert main(["top", root]) == 0
        assert "status=done" in capsys.readouterr().out
        with open(os.path.join(root, "index.json"), "w") as handle:
            json.dump({"format": "pds2-batch-index/1",
                       "batch": {"status": "done"}, "jobs": {},
                       "counts": {"settled": 4}, "divergent": []}, handle)
        db = JobsDB.open(root)
        db.append({"type": "batch", "status": "running"})
        db.append({"type": "job", "job_id": "job-00000",
                   "status": "requeued", "attempt": 1})
        db.close()
        assert main(["top", root]) == 0
        assert "status=running" in capsys.readouterr().out

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

    def test_spans_refuses_a_sidecar_file(self, batch_root, capsys):
        # spans reads a run directory; one shard of it is not one.
        sidecars = sorted(os.listdir(os.path.join(batch_root, "spans")))
        assert main(["spans",
                     os.path.join(batch_root, "spans", sidecars[-1])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1


#: Exit code of every reader on every writer's run directory: 0 where the
#: reader applies; an inapplicable pair prints one line and exits nonzero.
READER_EXITS = {
    #               top trace spans metrics audit batch-trace
    "quickstart": (0, 0, 0, 0, 0, 1),
    "faults": (0, 0, 0, 0, 0, 1),
    "chain": (0, 1, 1, 0, 0, 1),
    "batch": (0, 1, 0, 0, 2, 0),
}
READERS = (["top"], ["trace"], ["spans"], ["metrics"], ["chain", "audit"],
           ["batch", "trace"])
WRITERS = {"quickstart": (QUICKSTART, "quickstart_run"),
           "faults": (FAULTS, "faults_run"),
           "chain": (CHAIN, "chain_run"),
           "batch": (BATCH, "batch_root")}


def tree_bytes(root: str) -> dict[str, bytes]:
    found = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = handle.read()
    return found


class TestRunDirectory:
    """Four recording commands write one layout; six readers read it."""

    @pytest.mark.parametrize("reader", READERS, ids=" ".join)
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_writer_reader_matrix(self, request, capsys, writer, reader):
        root = request.getfixturevalue(WRITERS[writer][1])
        expected = READER_EXITS[writer][READERS.index(reader)]
        assert main(reader + [root]) == expected
        captured = capsys.readouterr()
        if expected:
            assert captured.out == ""
            assert len(captured.err.strip().splitlines()) == 1
            assert "Traceback" not in captured.err
        else:
            assert captured.out.strip()

    def test_top_panes_follow_the_files(self, quickstart_run, batch_root,
                                        capsys):
        assert main(["top", quickstart_run, "--watch", "60"]) == 0
        output = capsys.readouterr().out
        # Finished on the first frame: the chain pane's audit.json exists.
        assert output.count("PDS2 CHAIN") == 1
        assert "audit: OK" in output and "status=" not in output
        assert main(["top", batch_root, "--watch", "60"]) == 0
        output = capsys.readouterr().out
        assert "status=done" in output and "PDS2 CHAIN" not in output
        assert "batch digest: " in output and "divergent=0" in output

    def test_blocks_of_a_session_run_start_at_block_one(self,
                                                        quickstart_run):
        import json

        with open(os.path.join(quickstart_run, "blocks.jsonl"),
                  encoding="utf-8") as handle:
            numbers = [json.loads(line)["number"] for line in handle]
        assert numbers == list(range(1, len(numbers) + 1))
        with open(os.path.join(quickstart_run, "audit.json"),
                  encoding="utf-8") as handle:
            assert json.load(handle)["blocks_checked"] == len(numbers)

    def test_no_run_at_all(self, tmp_path, capsys):
        assert main(["top", str(tmp_path)]) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_recording_into_an_occupied_run_is_refused(
            self, request, tmp_path, capsys, writer):
        import shutil

        argv, fixture = WRITERS[writer]
        root = str(tmp_path / "run")
        shutil.copytree(request.getfixturevalue(fixture), root)
        before = tree_bytes(root)
        assert main(argv + [root]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "already holds a run" in captured.err
        assert tree_bytes(root) == before

    def test_an_empty_directory_is_not_occupied(self, tmp_path, capsys):
        root = tmp_path / "run"
        root.mkdir()
        assert main(CHAIN + [str(root)]) == 0
        assert "mined" in capsys.readouterr().out
