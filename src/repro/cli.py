"""Command-line interface for the PDS2 reproduction.

Usage::

    python -m repro info                 # package and subsystem summary
    python -m repro quickstart           # run one workload end to end
    python -m repro experiments          # list the experiment suite
    python -m repro aggregate --kind mean --dp-epsilon 1.0
                                         # run a DP aggregate workload
    python -m repro faults crash-execute # inject a fault, watch recovery
    python -m repro quickstart --run RUNS/q
                                         # record a run directory
    python -m repro trace RUNS/q         # replay a session's event timeline
    python -m repro metrics RUNS/q       # Prometheus view of a run
    python -m repro spans RUNS/q         # flame-style span tree of a run
    python -m repro bench --suite quick --compare BENCH_seed.json
                                         # benchmark trajectory + CI gate
    python -m repro profile --format collapsed
                                         # deterministic sampling profile
    python -m repro batch submit RUNS/b --jobs 240
                                         # sharded, crash-resumable batch
    python -m repro chain run RUNS/c     # mine a synthetic chain workload
    python -m repro top RUNS/b --watch 2 # the console: batch and chain panes
    python -m repro batch trace RUNS/b --chrome t.json
                                         # assembled distributed trace
    python -m repro chain audit RUNS/c   # auditor verdicts, exit 1 on any

Every recording command (``quickstart|faults --run``, ``chain run``,
``batch submit``) writes one run-directory layout (DESIGN §9) and refuses
a RUN that already holds a run.

The CLI exists so a downstream user can see the platform move without
writing code; anything serious should use the Python API (see README).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any

import numpy as np


class OutputWriter:
    """Single sink for all CLI output so text and JSON modes compose.

    In text mode (default), :meth:`line` prints to stdout.  In JSON mode,
    text lines are suppressed, handlers attach structured results with
    :meth:`set`, and :meth:`emit` prints one JSON document at the end —
    commands never mix prose into machine-readable output.  Errors always
    go to stderr in both modes.
    """

    def __init__(self, json_mode: bool = False):
        self.json_mode = json_mode
        self._payload: dict[str, Any] = {}

    def line(self, text: str = "") -> None:
        """One line of human-facing text (dropped in JSON mode)."""
        if not self.json_mode:
            print(text)

    def error(self, text: str) -> None:
        """Diagnostics: stderr in both modes."""
        print(text, file=sys.stderr)

    def set(self, key: str, value: Any) -> None:
        """Attach one field of the machine-readable result."""
        self._payload[key] = value

    def emit(self) -> None:
        """Flush the JSON payload (no-op in text mode or when empty)."""
        if self.json_mode and self._payload:
            print(json.dumps(self._payload, indent=2, default=str))


def _cmd_info(args: argparse.Namespace, out: OutputWriter) -> int:
    import repro

    subsystems = [
        ("repro.crypto", "ECDSA, Merkle, Paillier, SMC, symmetric crypto"),
        ("repro.chain", "Ethereum-style ledger, contract VM, tokens"),
        ("repro.governance", "registries, workload contracts, audit"),
        ("repro.tee", "enclaves, attestation, backend cost model"),
        ("repro.storage", "local/swarm/cloud backends, semantic catalog"),
        ("repro.net", "link model, topologies, churn timelines"),
        ("repro.ml", "models, datasets, gossip learning, FedAvg"),
        ("repro.privacy", "DP-SGD, RDP accounting, membership inference"),
        ("repro.rewards", "Shapley, pricing, distribution, economics"),
        ("repro.identity", "device keys, signed readings, verification"),
        ("repro.core", "the marketplace facade (paper Fig. 1/2)"),
        ("repro.telemetry", "metrics registry, span tracing, exporters"),
    ]
    out.line(f"PDS2 reproduction, version {repro.__version__}")
    out.line("Giaretta et al., ICDE 2021 — full implementation\n")
    for name, description in subsystems:
        out.line(f"  {name:<18} {description}")
    out.line("\nSee DESIGN.md for the system inventory and EXPERIMENTS.md "
             "for the paper-vs-measured record.")
    out.set("version", repro.__version__)
    out.set("subsystems", [name for name, _ in subsystems])
    return 0


def _demo_market(args: argparse.Namespace, rows: int):
    """The seeded demo marketplace of the run commands: ``rows`` HAR
    samples, a quarter held out for the consumer, the rest Dirichlet-split
    over ``--providers``, then ``--executors``.  Returns ``(market,
    consumer)``."""
    from repro.core import Marketplace
    from repro.ml.datasets import (
        make_iot_activity,
        split_dirichlet,
        train_test_split,
    )
    from repro.storage.semantic import SemanticAnnotation

    rng = np.random.default_rng(args.seed)
    data = make_iot_activity(rows, rng)
    train, validation = train_test_split(data, 0.25, rng)
    parts = split_dirichlet(train, args.providers, 1.0, rng, min_samples=15)

    market = Marketplace(seed=args.seed)
    for index, part in enumerate(parts):
        market.add_provider(f"user-{index}", part,
                            SemanticAnnotation("heart_rate",
                                               {"rate_hz": 1.0}))
    consumer = market.add_consumer("consumer", validation=validation)
    for index in range(args.executors):
        market.add_executor(f"executor-{index}")
    return market, consumer


def _demo_spec(args: argparse.Namespace, workload_id: str, steps: int,
               **overrides: Any):
    """The demo softmax workload; ``overrides`` are WorkloadSpec fields."""
    from repro.core import ModelSpec, TrainingSpec, WorkloadSpec
    from repro.storage.semantic import ConceptRequirement

    fields: dict[str, Any] = dict(
        workload_id=workload_id,
        requirement=ConceptRequirement("physiological"),
        model=ModelSpec(family="softmax", num_features=6, num_classes=5),
        training=TrainingSpec(steps=steps, learning_rate=0.3),
        reward_pool=1_000_000,
        min_providers=max(1, args.providers // 2),
        min_samples=100,
        required_confirmations=min(2, args.executors),
    )
    fields.update(overrides)
    return WorkloadSpec(**fields)


def _claim_run(root: str, out: OutputWriter) -> bool:
    """Create RUN for a recording command.  A RUN that already holds
    anything is refused with one line on stderr (the caller exits 2): a
    second run recorded into it would interleave with the first."""
    if os.path.exists(root) and not (os.path.isdir(root)
                                     and not os.listdir(root)):
        out.error(f"{root!r} already holds a run; record into a new "
                  "directory (`repro batch resume` continues a batch)")
        return False
    os.makedirs(root, exist_ok=True)
    return True


def _holds_batch(root: str) -> bool:
    from repro.control import JobsDB

    return os.path.exists(JobsDB(root).specs_path)


def _record_session(market: Any, root: str | None, out: OutputWriter,
                    run: Any) -> Any:
    """``run()``; with ``--run RUN`` the market's events stream to
    ``RUN/events.jsonl`` and its chain's blocks to ``RUN/blocks.jsonl``, and
    the audit summary and the metrics snapshot are written at the end."""
    if not root:
        return run()
    from repro.chain.observe import ChainRunRecorder
    from repro.core.events import EVENTS_FILE, JSONLSink
    from repro.telemetry import write_run_metrics

    recorder = ChainRunRecorder(root)
    recorder.attach(market.chain)
    with JSONLSink(os.path.join(root, EVENTS_FILE)) as sink:
        market.events.attach(sink)
        try:
            result = run()
        finally:
            market.events.detach(sink)
            recorder.close(market.chain)
    write_run_metrics(root)
    out.line(f"run recorded in {root} "
             f"(read: python -m repro top|trace|spans|metrics {root})")
    out.set("run", root)
    return result


def _cmd_quickstart(args: argparse.Namespace, out: OutputWriter) -> int:
    if args.run and not _claim_run(args.run, out):
        return 2
    market, consumer = _demo_market(args, rows=1600)
    spec = _demo_spec(args, "cli-quickstart", steps=150,
                      dp_epsilon=args.dp_epsilon)
    out.line(f"running workload with {args.providers} providers, "
             f"{args.executors} executors…")
    session = _record_session(market, args.run, out,
                              lambda: market.run_workload(consumer, spec))
    if session.failure is not None:
        out.error(f"workload {session.outcome}: "
                  f"{type(session.failure).__name__}: {session.failure}")
        return 1
    ctx = session.ctx
    accuracy = consumer.evaluate_result(spec, ctx.result_vector)
    paid = sum(ctx.payouts.values())
    epsilon = ctx.extra["achieved_epsilon"]
    out.line(f"accuracy: {accuracy:.3f}")
    out.line(f"gas used: {session.gas_used:,}")
    out.line(f"rewards paid: {paid:,} across {len(ctx.payouts)} recipients")
    if epsilon is not None:
        out.line(f"differential privacy: epsilon = {epsilon:.2f}")
    out.line(f"audit clean: {ctx.audit.clean}")
    out.set("accuracy", accuracy)
    out.set("gas_used", session.gas_used)
    out.set("rewards_paid", paid)
    out.set("recipients", len(ctx.payouts))
    out.set("dp_epsilon", epsilon)
    out.set("audit_clean", ctx.audit.clean)
    return 0 if ctx.audit.clean else 1


def _cmd_faults(args: argparse.Namespace, out: OutputWriter) -> int:
    from repro.core.resilience import SCENARIOS, run_with_faults

    scenario = SCENARIOS.get(args.scenario)
    if scenario is None:
        out.error(f"unknown fault scenario {args.scenario!r} "
                  f"(choose from: {', '.join(sorted(SCENARIOS))})")
        return 2
    if args.run and not _claim_run(args.run, out):
        return 2
    out.line(f"scenario {scenario.name}: {scenario.description}")

    market, consumer = _demo_market(args, rows=900)
    spec = _demo_spec(
        args, f"cli-faults-{scenario.name}", steps=80, reward_pool=600_000,
        # One provider may be dropped by recovery and the match still holds.
        min_providers=max(1, args.providers - 1), min_samples=50,
    )
    plan = scenario.plan([executor.name for executor in market.executors],
                         [provider.name for provider in market.providers])
    for line in plan.describe():
        out.line(f"  armed: {line}")
    recover = not args.no_recovery
    out.line(f"recovery policy: {'on' if recover else 'off (baseline)'}")

    session = _record_session(
        market, args.run, out,
        lambda: run_with_faults(market, consumer, spec, plan,
                                recover=recover))
    ctx = session.ctx
    completed = session.outcome != "failed"
    contract_state = session.read_state() if ctx.workload_address else ""
    error = ("" if session.failure is None
             else f"{type(session.failure).__name__}: {session.failure}")
    injected = session.injector.injected

    out.line(f"outcome: {session.outcome} "
             f"(session {session.state}, "
             f"contract {contract_state or 'not deployed'})")
    out.line(f"faults injected: {len(injected)}")
    for action in ctx.recovery_log:
        out.line(f"  recovery: {action['action']} in {action['phase']} "
                 f"-> {action['target']} ({action['reason']})")
    if ctx.blacklist:
        out.line(f"blacklisted executors: {', '.join(ctx.blacklist)}")
    dropped = sorted(ctx.dropped_providers)
    if dropped:
        out.line(f"dropped providers: {', '.join(dropped)}")
    paid = sum(ctx.payouts.values())
    if completed:
        out.line(f"rewards paid: {paid:,} "
                 f"across {len(ctx.payouts)} recipients")
    if ctx.refunded:
        out.line(f"escrow refunded to consumer: {ctx.refunded:,}")
    if error:
        out.line(f"terminal error: {error}")
    out.line(f"gas used: {session.gas_used:,}")
    out.set("scenario", scenario.name)
    out.set("recovery", recover)
    out.set("outcome", session.outcome)
    out.set("completed", completed)
    out.set("degraded", ctx.degraded)
    out.set("contract_state", contract_state)
    out.set("faults_injected", len(injected))
    out.set("recoveries", ctx.recovery_log)
    out.set("blacklisted", ctx.blacklist)
    out.set("dropped_providers", dropped)
    out.set("rewards_paid", paid)
    out.set("refunded", ctx.refunded)
    out.set("gas_used", session.gas_used)
    out.set("error", error)
    return 0 if completed else 1


def _cmd_experiments(args: argparse.Namespace, out: OutputWriter) -> int:
    from pathlib import Path

    from repro.bench import discover

    experiments = [
        (exp.experiment_id, exp.title,
         f"benchmarks/{Path(exp.run.__code__.co_filename).name}")
        for exp in discover().values()
    ]
    out.line("experiment suite (run: python -m repro bench --suite full)\n")
    for exp_id, title, bench in experiments:
        out.line(f"  {exp_id:<6} {title:<58} {bench}")
    out.set("experiments", [
        {"id": exp_id, "title": title, "benchmark": bench}
        for exp_id, title, bench in experiments
    ])
    return 0


def _cmd_aggregate(args: argparse.Namespace, out: OutputWriter) -> int:
    from repro.core.aggregates import (
        AggregateKind,
        AggregateResult,
        AggregateSpec,
        aggregate_enclave_entry_point,
    )
    from repro.core.workload import join_rows, serialize_partition
    from repro.ml.datasets import make_iot_activity
    from repro.tee.enclave import EnclaveCode, TEEPlatform

    rng = np.random.default_rng(args.seed)
    data = make_iot_activity(1000, rng)
    half = len(data) // 2
    inputs = {}
    for index, rows in enumerate((slice(0, half), slice(half, len(data)))):
        inputs[f"provider:0x{index:040x}"] = join_rows(serialize_partition(
            data.features[rows], data.targets[rows]))

    spec = AggregateSpec(
        kind=AggregateKind(args.kind),
        field_index=args.field,
        bin_edges=(-2.0, -1.0, 0.0, 1.0, 2.0) if args.kind == "histogram"
        else (),
        dp_epsilon=args.dp_epsilon,
        sensitivity=0.01,
    )
    platform = TEEPlatform("cli", rng)
    enclave = platform.launch(EnclaveCode(
        "aggregate", "1", aggregate_enclave_entry_point
    ))
    for label, blob in inputs.items():
        enclave.provision_plain(label, blob)
    enclave.run(agg_spec=spec.to_dict(), noise_seed=args.seed)
    result = AggregateResult.from_output(enclave.extract_output())
    out.line(f"{result.kind.value} over feature {args.field} "
             f"({result.total_samples} samples from "
             f"{len(result.sample_counts)} providers)")
    if result.dp_epsilon is not None:
        out.line("released with differential privacy, "
                 f"epsilon = {result.dp_epsilon}")
    out.line(f"statistic: {result.statistic}")
    out.set("kind", result.kind.value)
    out.set("field", args.field)
    out.set("total_samples", result.total_samples)
    out.set("dp_epsilon", result.dp_epsilon)
    out.set("statistic", result.statistic)
    return 0


def _cmd_gossip(args: argparse.Namespace, out: OutputWriter) -> int:
    """Run one seeded gossip-learning experiment.

    The population gets an even per-node split of the seeded HAR corpus
    (scales to tens of thousands of nodes, unlike the Dirichlet sampler,
    which needs a huge corpus to satisfy its minimum-partition size).
    A softmax model with uncompressed messages always lands on the
    flat-array kernels (see ``GossipTrainer``).
    """
    import time as _time

    from repro.ml.datasets import make_iot_activity, train_test_split
    from repro.ml.gossip import GossipConfig, GossipTrainer
    from repro.ml.models import SoftmaxRegressionModel
    from repro.net.churn import ChurnModel

    rng = np.random.default_rng(424242)
    total = args.nodes * args.per_node
    test_size = max(500, min(2000, total // 10))
    data = make_iot_activity(total + test_size, rng)
    train, test = train_test_split(data, test_size / (total + test_size),
                                   rng)
    split_cls = type(train)
    parts = [
        split_cls(
            features=train.features[i * args.per_node:
                                    (i + 1) * args.per_node],
            targets=train.targets[i * args.per_node:
                                  (i + 1) * args.per_node],
        )
        for i in range(args.nodes)
    ]
    churn = None
    if args.availability < 1.0:
        churn = ChurnModel.from_availability(args.availability,
                                             mean_online_s=60.0)

    out.line(f"gossip: {args.nodes} nodes x {args.per_node} samples, "
             f"{args.duration:.0f}s simulated")
    start = _time.perf_counter()
    trainer = GossipTrainer(
        lambda: SoftmaxRegressionModel(6, 5, l2=0.01), parts, test,
        GossipConfig(batch_size=args.batch_size),
        seed=args.seed, churn=churn,
    )
    result = trainer.run(args.duration, eval_interval_s=args.eval_interval)
    wall = _time.perf_counter() - start

    for t, accuracy in result.history:
        out.line(f"  t={t:>7.0f}s  accuracy {accuracy:.3f}")
    out.line(f"final accuracy: {result.final_mean_score:.3f} "
             f"(online nodes: {result.final_online_score:.3f})")
    out.line(f"events: {result.events_processed:,} "
             f"(wakes {result.wakes:,}, merges {result.merges:,})")
    out.line(f"traffic: {result.bytes_delivered:,} B delivered, "
             f"{result.messages_delivered:,} messages "
             f"({result.messages_dropped:,} dropped)")
    out.line(f"wall time: {wall:.2f}s "
             f"({result.events_processed / wall:,.0f} events/s)")
    out.set("nodes", args.nodes)
    out.set("final_accuracy", result.final_mean_score)
    out.set("history", result.history)
    out.set("events_processed", result.events_processed)
    out.set("bytes_delivered", result.bytes_delivered)
    out.set("messages_dropped", result.messages_dropped)
    out.set("wall_s", wall)
    return 0


def _cmd_trace(args: argparse.Namespace, out: OutputWriter) -> int:
    from repro.core.events import (
        EVENTS_FILE,
        phase_gas_totals,
        read_jsonl_events,
    )
    from repro.errors import PDS2Error

    path = os.path.join(args.run, EVENTS_FILE)
    try:
        events = read_jsonl_events(path)
    except (OSError, PDS2Error) as exc:
        out.error(f"cannot read trace {path!r}: {exc}")
        return 1
    if not events:
        out.error(f"no events in {path!r}")
        return 1

    sessions: list[str] = []
    for event in events:
        if event.session_id and event.session_id not in sessions:
            sessions.append(event.session_id)
    if args.session:
        if args.session not in sessions:
            out.error(f"session {args.session!r} not in trace "
                      f"(have: {', '.join(sessions) or 'none'})")
            return 1
        selected = args.session
    elif sessions:
        selected = sessions[-1]  # default: the most recent session
    else:
        out.error("trace has only platform-level events (no sessions)")
        return 1

    timeline = [e for e in events if e.session_id == selected]
    out.line(f"session {selected} — {len(timeline)} events"
             + (f" (of {len(sessions)} sessions in trace)"
                if len(sessions) > 1 else ""))
    header = (f"{'#':>4}  {'clock':>6}  {'phase':<18} {'event':<26} "
              f"{'gas':>8}  {'block':>5}  actor")
    out.line(header)
    out.line("-" * len(header))
    for event in timeline:
        block = str(event.block_height) if event.block_height >= 0 else ""
        gas = str(event.gas_delta) if event.gas_delta else ""
        actor = event.actor[:14] + "…" if len(event.actor) > 15 else event.actor
        out.line(f"{event.sequence:>4}  {event.sim_clock:>6.1f}  "
                 f"{event.phase:<18} {event.name:<26} {gas:>8}  {block:>5}  "
                 f"{actor}")
    out.line("-" * len(header))
    total_gas = sum(e.gas_delta for e in timeline)
    out.line(f"total gas: {total_gas:,}")
    for phase, gas in phase_gas_totals(timeline).items():
        if gas:
            out.line(f"  {phase:<20} {gas:>10,}")
    out.set("session", selected)
    out.set("events", len(timeline))
    out.set("total_gas", total_gas)
    out.set("gas_by_phase",
            {p: g for p, g in phase_gas_totals(timeline).items() if g})
    return 0


def _cmd_metrics(args: argparse.Namespace, out: OutputWriter) -> int:
    """Prometheus view of ``RUN/metrics.json`` (or of a snapshot file)."""
    from repro.errors import TelemetryError
    from repro.telemetry import MetricsRegistry, snapshot, to_prometheus
    from repro.telemetry.exporters import METRICS_FILE

    path = args.source
    if os.path.isdir(path):
        path = os.path.join(path, METRICS_FILE)
    try:
        with open(path, encoding="utf-8") as fh:
            registry = MetricsRegistry.from_snapshot(json.load(fh))
    except OSError as exc:
        out.error(f"cannot read snapshot {path!r}: {exc}")
        return 1
    except json.JSONDecodeError as exc:
        out.error(f"snapshot {path!r} is not valid JSON: {exc}")
        return 1
    except TelemetryError as exc:
        out.error(f"snapshot {path!r} rejected: {exc}")
        return 1
    exposition = to_prometheus(registry)
    if not exposition.strip():
        out.error(f"{path!r} holds an empty registry")
        return 1
    if out.json_mode:
        out.set("source", path)
        out.set("snapshot", snapshot(registry))
    else:
        out.line(exposition.rstrip("\n"))
    return 0


def _cmd_spans(args: argparse.Namespace, out: OutputWriter) -> int:
    """Render the spans a run recorded: the batch's span sidecars
    (``RUN/spans/``) when RUN holds a batch, else the ``span.end`` events
    of ``RUN/events.jsonl``."""
    from repro.control import JobsDB
    from repro.core.events import EVENTS_FILE, read_jsonl_events
    from repro.errors import PDS2Error
    from repro.telemetry import Span, render_span_tree, spans_from_events

    source = args.run
    try:
        if _holds_batch(source):
            spans = [Span.from_dict(record)
                     for record in JobsDB(source).span_records()
                     if record.get("type") == "span"]
        else:
            spans = spans_from_events(
                read_jsonl_events(os.path.join(source, EVENTS_FILE)))
    except (OSError, PDS2Error) as exc:
        out.error(f"cannot read spans of {source!r}: {exc}")
        return 1
    if args.session:
        spans = [s for s in spans
                 if s.attributes.get("session_id") == args.session]
    if args.trace_id:
        spans = [s for s in spans
                 if s.attributes.get("trace_id") == args.trace_id]
    if not spans:
        filters = [f"session {args.session!r}" if args.session else "",
                   f"trace {args.trace_id!r}" if args.trace_id else ""]
        applied = " for " + " and ".join(f for f in filters if f) \
            if any(filters) else ""
        out.error(f"no finished spans in {source!r}{applied}")
        return 1
    out.line(f"{len(spans)} spans from {source}")
    out.line(render_span_tree(spans))
    out.set("trace", source)
    out.set("span_count", len(spans))
    out.set("spans", [span.to_dict() for span in spans])
    return 0


def _cmd_bench(args: argparse.Namespace, out: OutputWriter) -> int:
    from pathlib import Path

    from repro.bench import compare_trajectories, git_sha, run_suite

    try:
        trajectory = run_suite(
            suite=args.suite,
            only=args.only or None,
            progress=out.line,
        )
    except (ValueError, FileNotFoundError) as exc:
        out.error(str(exc))
        return 2

    output = args.output or f"BENCH_{git_sha()}.json"
    try:
        Path(output).write_text(
            json.dumps(trajectory, indent=2, sort_keys=True) + "\n"
        )
    except OSError as exc:
        out.error(f"cannot write {output!r}: {exc}")
        return 2
    out.line(f"trajectory written to {output}")
    out.set("output", output)
    out.set("suite", args.suite)

    exit_code = 0
    errored = sorted(
        experiment_id
        for experiment_id, entry in trajectory["experiments"].items()
        if entry["status"] != "ok"
    )
    if errored:
        out.error("experiment(s) errored: " + ", ".join(errored))
        exit_code = 1
    false_claims = [
        f"{experiment_id}/{name}"
        for experiment_id, entry in trajectory["experiments"].items()
        for name in entry["false_claims"]
    ]
    out.set("false_claims", false_claims)
    if false_claims:
        out.error("false claim(s): " + ", ".join(false_claims))
        exit_code = 1

    if args.compare:
        try:
            baseline = json.loads(Path(args.compare).read_text())
        except OSError as exc:
            out.error(f"cannot read baseline {args.compare!r}: {exc}")
            return 2
        except json.JSONDecodeError as exc:
            out.error(f"baseline {args.compare!r} is not valid JSON: {exc}")
            return 2
        try:
            report = compare_trajectories(baseline, trajectory)
        except ValueError as exc:
            out.error(str(exc))
            return 2
        out.line("")
        out.line(f"comparison against {args.compare}:")
        out.line(report.render())
        out.set("comparison_ok", report.ok)
        out.set("regressions",
                [delta.describe() for delta in report.regressions])
        if not report.ok:
            exit_code = 1
    out.set("ok", exit_code == 0)
    return exit_code


def _cmd_profile(args: argparse.Namespace, out: OutputWriter) -> int:
    """Profile one seeded quickstart workload and print flame data.

    ``calls`` mode is the default so two identical invocations in fresh
    processes emit byte-identical collapsed stacks (the determinism tests
    run this command twice via subprocess and diff the output).
    """
    from repro.telemetry import (
        Profiler,
        profile_snapshot,
        profile_to_collapsed,
        render_profile_tree,
    )

    market, consumer = _demo_market(args, rows=800)
    spec = _demo_spec(args, "cli-profile", steps=60)
    profiler = Profiler(mode=args.mode, hz=args.hz,
                        call_interval=args.interval,
                        sim_clock=lambda: market.clock)
    with profiler:
        market.run_workload(consumer, spec)
    profile = profiler.result()

    if not profile.total_samples:
        out.error("profiler captured no samples")
        return 1
    if args.format == "collapsed":
        # Raw flamegraph fodder on stdout; everything else would pollute
        # the byte-identical output the determinism tests diff.
        out.line(profile_to_collapsed(profile).rstrip("\n"))
    else:
        out.line(f"{profile.total_samples} samples "
                 f"({profile.attribution_ratio:.1%} span-attributed, "
                 f"mode={profile.mode})")
        out.line(render_profile_tree(profile))
    out.set("profile", profile_snapshot(profile))
    return 0


def _batch_run(args: argparse.Namespace, out: OutputWriter) -> int:
    from repro.control import (
        TERMINAL_BATCH_STATES,
        batch_execute,
        ops_snapshot,
        render_top,
    )

    last = [-1]

    def progress(done: int, total: int) -> None:
        # One line every ~5% keeps 10k-job sweeps readable.
        step = max(1, total // 20)
        if done == total or done // step > last[0]:
            last[0] = done // step
            out.line(f"  {done}/{total} jobs settled")

    report = batch_execute(
        args.root, workers=args.workers,
        max_attempts=args.max_attempts,
        kill_after=tuple(args.kill_worker_after or ()),
        progress=progress,
    )
    out.line(render_top(ops_snapshot(args.root)).rstrip("\n"))
    out.set("status", report.status)
    out.set("counts", report.counts)
    out.set("batch_digest", report.batch_digest)
    out.set("trace_id", report.trace_id)
    out.set("worker_deaths", report.worker_deaths)
    out.set("requeues", report.requeues)
    out.set("manifest", report.manifest_path)
    ok = report.status in TERMINAL_BATCH_STATES and report.status != "failed"
    return 0 if ok else 1


def _cmd_top(args: argparse.Namespace, out: OutputWriter) -> int:
    """The console over one run directory: a batch pane when RUN holds a
    batch, a chain pane when it holds ``blocks.jsonl``.  ``--watch``
    refreshes until every pane shown is final (a terminal batch state; an
    ``audit.json``, which a run writes when it ends)."""
    import dataclasses
    import time as _time

    from repro.chain.observe import (
        BLOCKS_FILE,
        read_chain_run,
        render_chain_top,
    )
    from repro.control import TERMINAL_BATCH_STATES, ops_snapshot, render_top
    from repro.errors import PDS2Error

    root = args.run
    batch = _holds_batch(root)
    chain = os.path.exists(os.path.join(root, BLOCKS_FILE))
    if not (batch or chain):
        out.error(f"no run at {root!r}: it holds neither a batch nor "
                  f"{BLOCKS_FILE}")
        return 1
    while True:
        final = True
        try:
            if batch:
                snap = ops_snapshot(root)
                out.line(render_top(snap).rstrip("\n"))
                out.set("snapshot", dataclasses.asdict(snap))
                final = snap.batch_status in TERMINAL_BATCH_STATES
            if chain:
                data = read_chain_run(root)
                out.line(render_chain_top(data["records"], data["audit"]))
                out.set("blocks", len(data["records"]))
                final = final and data["audit"] is not None
        except PDS2Error as exc:
            out.error(f"cannot read run at {root!r}: {exc}")
            return 1
        if args.watch is None or final:
            return 0
        out.line("")
        _time.sleep(args.watch)


def _batch_trace(args: argparse.Namespace, out: OutputWriter) -> int:
    from repro.control import assemble_batch_trace
    from repro.errors import PDS2Error
    from repro.telemetry import (
        critical_path,
        render_critical_path,
        to_chrome_trace,
    )

    try:
        assembled = assemble_batch_trace(args.root)
    except PDS2Error as exc:
        out.error(f"cannot assemble trace for {args.root!r}: {exc}")
        return 1
    out.line(f"trace {assembled.trace_id}")
    out.line(f"spans: {len(assembled.spans)} "
             f"(lost-worker: {len(assembled.lost)}, "
             f"orphans: {len(assembled.orphans)})")
    out.line(f"completeness: {assembled.completeness:.3f}"
             + (f"  unwitnessed: {', '.join(assembled.unwitnessed)}"
                if assembled.unwitnessed else ""))
    path = critical_path(assembled)
    out.line("")
    out.line(render_critical_path(path).rstrip("\n"))
    out.set("trace_id", assembled.trace_id)
    out.set("span_count", len(assembled.spans))
    out.set("completeness", assembled.completeness)
    out.set("orphans", len(assembled.orphans))
    out.set("lost_workers", len(assembled.lost))
    out.set("unwitnessed", assembled.unwitnessed)
    out.set("critical_path", {"job_id": path.job_id,
                              "total_sim": path.total_sim,
                              "chain": path.chain})
    if args.chrome:
        payload = to_chrome_trace(assembled)
        with open(args.chrome, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
        out.line(f"chrome trace written to {args.chrome} "
                 "(load at chrome://tracing or https://ui.perfetto.dev)")
        out.set("chrome", args.chrome)
    # Orphaned spans mean the causal story has holes; fail loudly so the
    # CI trace-smoke job catches it.
    return 0 if not assembled.orphans else 1


def _batch_submit(args: argparse.Namespace, out: OutputWriter) -> int:
    from repro.control import JobSpec, submit_batch

    if not _claim_run(args.root, out):
        return 2
    specs = []
    for index in range(args.jobs):
        faulted = args.fault_rate > 0 and index % args.fault_every == 0
        specs.append(JobSpec(
            job_id=f"job-{index:05d}",
            seed=args.seed + index,
            fault_rate=args.fault_rate if faulted else 0.0,
        ))
    submit_batch(args.root, specs)
    out.line(f"submitted {len(specs)} jobs to {args.root}")
    out.set("root", args.root)
    out.set("jobs", len(specs))
    if args.no_execute:
        out.line(f"execute with: python -m repro batch resume {args.root}")
        return 0
    return _batch_run(args, out)


def _batch_kill(args: argparse.Namespace, out: OutputWriter) -> int:
    from repro.control import JobsDB

    db = JobsDB.open(args.root)
    db.request_kill("cli")
    db.close()
    out.line(f"kill journaled for {args.root} (the running coordinator "
             f"aborts at its next poll; a later run supersedes it)")
    return 0


def _chain_run(args: argparse.Namespace, out: OutputWriter) -> int:
    """Mine a deterministic synthetic workload into a run directory."""
    import numpy as np

    from repro.chain.audit import install_state_corruption
    from repro.chain.blockchain import Blockchain, Wallet
    from repro.chain.consensus import ProofOfAuthority
    from repro.chain.observe import ChainRunRecorder
    from repro.telemetry import write_run_metrics

    if not _claim_run(args.root, out):
        return 2
    rng = np.random.default_rng(args.seed)
    consensus = ProofOfAuthority.with_generated_validators(1, rng)
    chain = Blockchain(consensus)
    recorder = ChainRunRecorder(args.root)
    recorder.attach(chain)
    wallets = [Wallet.generate(chain, rng, f"w{index}")
               for index in range(args.wallets)]
    for wallet in wallets:
        chain.state.credit(wallet.address, 10**12)
    # A funded bystander that never transacts: under a corrupt_state fault
    # it is a candidate victim, and the forensic bundle can then name it.
    chain.state.credit("0x" + "b7" * 20, 10**9)
    if args.corrupt_block is not None:
        install_state_corruption(chain, args.corrupt_block, seed=args.seed)
    token = wallets[0].deploy_and_mine("erc20", initial_supply=10**9)
    for wallet in wallets[1:]:
        wallets[0].call(token, "transfer", recipient=wallet.address,
                        amount=10**6)
    chain.mine_block()
    count = len(wallets)
    for block in range(args.blocks):
        # Transfers between rotating wallet pairs; every third block goes
        # through the token for a mixed tx profile.
        offset = 1 + int(rng.integers(1, max(2, count - 1)))
        for index, wallet in enumerate(wallets):
            partner = wallets[(index + offset) % count]
            if partner is wallet:
                continue
            if block % 3 == 2:
                wallet.call(token, "transfer", recipient=partner.address,
                            amount=1 + int(rng.integers(1, 50)))
            else:
                wallet.transfer(partner.address,
                                1000 + int(rng.integers(0, 1000)))
        chain.mine_block()
    recorder.close(chain)
    write_run_metrics(args.root)
    violations = len(chain.auditor.violations)
    out.line(f"mined {chain.height} blocks into {args.root}")
    out.line(f"audit: {violations} violation(s) over "
             f"{chain.auditor.blocks_checked} blocks")
    out.set("root", args.root)
    out.set("blocks", chain.height)
    out.set("violations", violations)
    return 0


def _chain_audit(args: argparse.Namespace, out: OutputWriter) -> int:
    """Report audit verdicts for a finished run; nonzero on violations."""
    from repro.chain.observe import AUDIT_FILE, FORENSICS_DIR, read_chain_run
    from repro.errors import ChainError

    try:
        data = read_chain_run(args.root)
    except ChainError as exc:
        out.error(f"cannot read chain run at {args.root!r}: {exc}")
        return 2
    audit = data["audit"]
    if audit is None:
        out.error(f"no {AUDIT_FILE} in {args.root!r} (no chain recorded "
                  "there, or the run has not ended)")
        return 2
    checked = audit.get("blocks_checked", 0)
    violations = audit.get("violations", [])
    out.line(f"audit: {checked} blocks checked, "
             f"{len(violations)} violation(s)")
    for violation in violations:
        out.line(f"  block {violation.get('block')} "
                 f"[{violation.get('kind')}] {violation.get('detail')}")
    forensics = os.path.join(args.root, FORENSICS_DIR)
    if violations and os.path.isdir(forensics):
        bundles = sorted(os.listdir(forensics))
        out.line(f"forensic bundles: "
                 f"{', '.join(os.path.join(forensics, b) for b in bundles)}")
    out.set("blocks_checked", checked)
    out.set("violations", violations)
    return 1 if violations else 0


def _at_least(minimum: int):
    """argparse ``type=`` of a count flag: an int >= ``minimum``, refused
    at parse time (exit 2, before any RUN exists) rather than mid-run."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value

    return count


def _above(bound: float):
    """argparse ``type=`` of a real-valued flag (a duration, an interval, a
    rate): a finite float above ``bound``, refused at parse time like a
    count below its minimum."""
    def number(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and value > bound):
            raise argparse.ArgumentTypeError(
                f"must be a finite number above {bound:g}, got {text}")
        return value

    return number


def _fraction(*, zero: bool):
    """argparse ``type=`` of a probability flag: a float in [0, 1], or in
    (0, 1] when ``zero`` is not a meaningful value."""
    interval = "[0, 1]" if zero else "(0, 1]"

    def fraction(text: str) -> float:
        value = float(text)
        if not (0.0 <= value <= 1.0) or (value == 0.0 and not zero):
            raise argparse.ArgumentTypeError(
                f"must be in {interval}, got {text}")
        return value

    return fraction


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PDS2 decentralized data marketplace (ICDE 2021) "
                    "reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_json_flag(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--json", action="store_true",
                         help="emit one JSON document instead of text")

    info = subparsers.add_parser("info", help="package summary")
    add_json_flag(info)
    info.set_defaults(handler=_cmd_info)

    quickstart = subparsers.add_parser(
        "quickstart", help="run one workload end to end"
    )
    quickstart.add_argument("--providers", type=_at_least(1), default=8)
    quickstart.add_argument("--executors", type=_at_least(1), default=2)
    quickstart.add_argument("--seed", type=int, default=42)
    quickstart.add_argument("--dp-epsilon", type=float, default=None)
    quickstart.add_argument("--run", default=None, metavar="RUN",
                            help="record the run into a new directory "
                                 "(read with `repro top|trace|spans|"
                                 "metrics RUN`)")
    add_json_flag(quickstart)
    quickstart.set_defaults(handler=_cmd_quickstart)

    experiments = subparsers.add_parser(
        "experiments", help="list the experiment suite"
    )
    add_json_flag(experiments)
    experiments.set_defaults(handler=_cmd_experiments)

    faults = subparsers.add_parser(
        "faults", help="run a workload under an injected fault scenario"
    )
    # The handler checks the name against repro.core.resilience.SCENARIOS,
    # so building the parser (`repro info` etc.) stays free of the core import.
    faults.add_argument("scenario",
                        help="named fault scenario to arm (an unknown name "
                             "lists the valid ones)")
    faults.add_argument("--providers", type=_at_least(1), default=3)
    faults.add_argument("--executors", type=_at_least(1), default=3)
    faults.add_argument("--seed", type=int, default=42)
    faults.add_argument("--no-recovery", action="store_true",
                        help="run the fail-fast baseline engine (no retry/"
                             "re-match/degrade); injected faults are "
                             "terminal")
    faults.add_argument("--run", default=None, metavar="RUN",
                        help="record the run into a new directory")
    add_json_flag(faults)
    faults.set_defaults(handler=_cmd_faults)

    aggregate = subparsers.add_parser(
        "aggregate", help="run a statistical aggregate workload in a TEE"
    )
    aggregate.add_argument("--kind", default="mean",
                           choices=["mean", "sum", "count", "histogram",
                                    "quantile"])
    aggregate.add_argument("--field", type=int, default=0)
    aggregate.add_argument("--dp-epsilon", type=float, default=None)
    aggregate.add_argument("--seed", type=int, default=7)
    add_json_flag(aggregate)
    aggregate.set_defaults(handler=_cmd_aggregate)

    gossip = subparsers.add_parser(
        "gossip", help="run one gossip-learning experiment"
    )
    gossip.add_argument("--nodes", type=_at_least(2), default=64,
                        help="population size (tens of thousands run in "
                             "seconds)")
    gossip.add_argument("--per-node", type=_at_least(1), default=24,
                        help="training samples per node")
    gossip.add_argument("--duration", type=_above(0), default=300.0,
                        help="simulated seconds")
    gossip.add_argument("--eval-interval", type=_above(0), default=100.0,
                        help="accuracy checkpoint spacing in simulated "
                             "seconds")
    gossip.add_argument("--batch-size", type=_at_least(1), default=8)
    gossip.add_argument("--availability", type=_fraction(zero=False),
                        default=1.0,
                        help="node availability in (0, 1]; below 1 enables "
                             "the churn model")
    gossip.add_argument("--seed", type=int, default=0)
    add_json_flag(gossip)
    gossip.set_defaults(handler=_cmd_gossip)

    trace = subparsers.add_parser(
        "trace", help="replay a recorded lifecycle event trace"
    )
    trace.add_argument("run", help="run directory written by "
                                   "`repro quickstart|faults --run`")
    trace.add_argument("--session", default=None,
                       help="session id to replay (default: the last "
                            "session in the trace)")
    add_json_flag(trace)
    trace.set_defaults(handler=_cmd_trace)

    metrics = subparsers.add_parser(
        "metrics", help="render run metrics in Prometheus text format"
    )
    metrics.add_argument("source", metavar="RUN",
                         help="a run directory (its metrics.json) or a "
                              "metrics snapshot file")
    add_json_flag(metrics)
    metrics.set_defaults(handler=_cmd_metrics)

    spans = subparsers.add_parser(
        "spans", help="render the span tree recorded in a trace"
    )
    spans.add_argument("run", help="a run directory: a batch's span "
                                   "sidecars, or else the span.end events "
                                   "of its events.jsonl")
    spans.add_argument("--session", default=None,
                       help="only spans of one session id")
    spans.add_argument("--trace", dest="trace_id", default=None,
                       metavar="TRACE_ID",
                       help="only spans of one distributed trace id")
    add_json_flag(spans)
    spans.set_defaults(handler=_cmd_spans)

    top = subparsers.add_parser(
        "top", help="the console over a run directory: a batch pane "
                    "(workers, outcomes, SLO burn) and a chain pane "
                    "(blocks, mempool, audit verdict)"
    )
    top.add_argument("run", help="run directory (running or finished)")
    top.add_argument("--watch", type=_above(0), default=None,
                     metavar="SECONDS",
                     help="refresh every SECONDS until every pane shown is "
                          "final (default: print once)")
    add_json_flag(top)
    top.set_defaults(handler=_cmd_top)

    bench = subparsers.add_parser(
        "bench", help="run the benchmark suite into a BENCH trajectory"
    )
    bench.add_argument("--suite", choices=["quick", "full"],
                       default="quick",
                       help="quick = reduced parameterizations for the CI "
                            "gate; full = the complete experiment sweep, "
                            "which also rewrites benchmarks/results/")
    bench.add_argument("--only", action="append", metavar="ID",
                       help="run only these experiment ids (repeatable, "
                            "e.g. --only E1 --only E12)")
    bench.add_argument("--compare", default=None, metavar="BASELINE",
                       help="diff the run against a committed BENCH_*.json "
                            "baseline; exit nonzero on regression")
    bench.add_argument("-o", "--output", default=None, metavar="PATH",
                       help="trajectory output path (default: "
                            "BENCH_<git-sha>.json)")
    add_json_flag(bench)
    bench.set_defaults(handler=_cmd_bench)

    profile = subparsers.add_parser(
        "profile", help="sampling-profile one workload into flame data"
    )
    profile.add_argument("--mode", choices=["calls", "sim", "wall"],
                         default="calls",
                         help="sampling trigger (calls = deterministic, "
                              "the default)")
    profile.add_argument("--interval", type=_at_least(1), default=64,
                         help="calls mode: sample every Nth profile event")
    profile.add_argument("--hz", type=_above(0), default=97.0,
                         help="wall/sim mode: sampling rate")
    profile.add_argument("--format", choices=["collapsed", "tree"],
                         default="tree",
                         help="collapsed = flamegraph.pl input lines; "
                              "tree = indented terminal view")
    profile.add_argument("--providers", type=_at_least(1), default=6)
    profile.add_argument("--executors", type=_at_least(1), default=2)
    profile.add_argument("--seed", type=int, default=42)
    add_json_flag(profile)
    profile.set_defaults(handler=_cmd_profile)

    batch = subparsers.add_parser(
        "batch", help="submit and drive a sharded, crash-resumable "
                      "batch of workload sessions"
    )
    batch_sub = batch.add_subparsers(dest="batch_command", required=True)

    def add_execute_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--workers", type=_at_least(1), default=4,
                         help="worker processes to shard across")
        sub.add_argument("--max-attempts", type=_at_least(1), default=3,
                         help="attempts per job before it counts as lost")
        sub.add_argument("--kill-worker-after", type=int, action="append",
                         metavar="N",
                         help="chaos hook: SIGKILL one busy worker after "
                              "the N-th result lands (repeatable; used by "
                              "the CI batch smoke)")

    submit = batch_sub.add_parser(
        "submit", help="create a batch of job specs (and run it)"
    )
    submit.add_argument("root", help="batch directory to create")
    submit.add_argument("--jobs", type=_at_least(1), default=100)
    submit.add_argument("--seed", type=int, default=0,
                        help="job i runs with seed SEED+i")
    submit.add_argument("--fault-rate", type=_fraction(zero=True),
                        default=0.0,
                        help="per-actor fault probability for faulted jobs")
    submit.add_argument("--fault-every", type=_at_least(1), default=1,
                        help="arm faults on every N-th job only")
    submit.add_argument("--no-execute", action="store_true",
                        help="only write the specs; run later with "
                             "`repro batch resume`")
    add_execute_flags(submit)
    add_json_flag(submit)
    submit.set_defaults(handler=_batch_submit)

    resume = batch_sub.add_parser(
        "resume", help="run (or continue) every unfinished job"
    )
    resume.add_argument("root", help="existing batch directory")
    add_execute_flags(resume)
    add_json_flag(resume)
    resume.set_defaults(handler=_batch_run)

    kill = batch_sub.add_parser(
        "kill", help="journal a kill record: abort the running batch"
    )
    kill.add_argument("root", help="existing batch directory")
    add_json_flag(kill)
    kill.set_defaults(handler=_batch_kill)

    batch_trace = batch_sub.add_parser(
        "trace", help="assemble the distributed trace: completeness, "
                      "lost workers, critical path"
    )
    batch_trace.add_argument("root", help="existing batch directory")
    batch_trace.add_argument("--chrome", default=None, metavar="PATH",
                             help="also write Chrome trace-event JSON "
                                  "(chrome://tracing / ui.perfetto.dev)")
    add_json_flag(batch_trace)
    batch_trace.set_defaults(handler=_batch_trace)

    chain_cmd = subparsers.add_parser(
        "chain", help="run and audit the blockchain substrate's ops plane"
    )
    chain_sub = chain_cmd.add_subparsers(dest="chain_command", required=True)

    chain_run = chain_sub.add_parser(
        "run", help="mine a deterministic synthetic workload into a "
                    "recorded run directory"
    )
    chain_run.add_argument("root", help="run directory to create")
    chain_run.add_argument("--blocks", type=_at_least(1), default=12,
                           help="workload blocks to mine (plus setup)")
    chain_run.add_argument("--wallets", type=_at_least(1), default=8)
    chain_run.add_argument("--seed", type=int, default=0)
    chain_run.add_argument("--corrupt-block", type=int, default=None,
                           metavar="N",
                           help="arm a corrupt_state fault right after "
                                "block N seals (auditor must catch it)")
    add_json_flag(chain_run)
    chain_run.set_defaults(handler=_chain_run)

    chain_audit = chain_sub.add_parser(
        "audit", help="report invariant-audit verdicts for a finished "
                      "run (exit 1 on violations)"
    )
    chain_audit.add_argument("root", help="chain run directory")
    add_json_flag(chain_audit)
    chain_audit.set_defaults(handler=_chain_audit)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    out = OutputWriter(json_mode=getattr(args, "json", False))
    try:
        code = args.handler(args, out)
        out.emit()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly, and hand
        # stdout a dead fd so interpreter shutdown doesn't re-raise.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
