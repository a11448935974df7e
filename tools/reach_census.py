#!/usr/bin/env python3
"""Reachability census: which functions under ``src/repro`` does anything run?

Every ``def`` under ``src/repro`` is sorted by what enters it while a fixed
list of entry points runs under a ``sys.settrace`` call hook:

* **entered** — an experiment (``repro bench --suite quick``), an E25
  workload, an example or a CLI command enters it;
* **tests-only** — only the tier-1 suite enters it;
* **unentered** — nothing does.

The hook records the code object of every frame that starts, in every
thread (``threading.settrace``) and in every forked child: a fork re-arms
it (``os.register_at_fork``), and ``os._exit``, which a forked worker ends
with instead of running ``atexit``, writes the child's file first.  Each
process writes one ``<pid>.txt`` into its entry point's directory; a
SIGKILLed worker writes nothing, which is why the CLI script's batch runs
several jobs per worker.  Standard library only.

    python tools/reach_census.py            # the grid and every uncovered function
    python tools/reach_census.py --check    # CI: allowlist, exit codes, DESIGN's table
    python tools/reach_census.py --table    # DESIGN's allowlist table, as markdown

A tests-only or unentered function is deleted, moved under ``tests/`` as a
named oracle, or listed in ``ALLOWLIST`` with a reason from ``REASONS``.
``--check`` fails when an uncovered function is on no entry, when an entry
matches nothing uncovered or matches an entered function, when an entry
point exits with another code than the one it declares, or when DESIGN's
table differs from ``--table``.
"""

from __future__ import annotations

import ast
import fnmatch
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

SOURCE_ROOT = "src/repro"
PRODUCTION_GROUPS = ("bench", "e25", "examples", "cli")
GROUPS = (*PRODUCTION_GROUPS, "tests")
#: Entry points run side by side; the tier-1 suite is the long pole.
PARALLEL = 2

#: The closed list of reasons a function may stay in ``src/`` unentered.
REASONS = {
    "safety": "safety code: rejects bad outside input, handles an error "
              "a call can return, or detects a fault",
    "oracle": "a test oracle",
    "abi": "token-standard or contract ABI surface",
    "probe": "an E25 layers.py probe target",
    "abstract": "an abstract declaration",
    "profiler": "a profiler setprofile callback, which a trace hook "
                "cannot see",
    "full": "a path only --suite full runs",
}

#: Uncovered functions that stay: ``(fnmatch pattern over
#: module.qualname, reason key, what it is)``.
ALLOWLIST: tuple[tuple[str, str, str], ...] = (
    # -- safety code -----------------------------------------------------
    ("repro.chain.mempool._is_genuine", "safety",
     "forged-intake check when a transaction contests an occupied slot"),
    ("repro.chain.mempool.Mempool._replace", "safety",
     "replace-by-fee: a higher-priced transaction for an occupied slot"),
    ("repro.chain.mempool.Mempool._reject", "safety",
     "the receipt of a transaction the pool refuses"),
    ("repro.chain.mempool.Mempool.requeue", "safety",
     "returns a block's unmined transactions to the pool"),
    ("repro.chain.state.WriteJournal.record_nonce", "safety",
     "undo log: a nonce bumped inside a transaction reverts with it"),
    ("repro.crypto.ecdsa.Signature.from_bytes", "safety",
     "wire decoder: rejects malformed and high-s signatures"),
    ("repro.crypto.ecdsa.PublicKey.from_bytes", "safety",
     "wire decoder: rejects off-curve and non-canonical keys"),
    ("repro.crypto.symmetric.Envelope.from_bytes", "safety",
     "wire decoder: rejects truncated envelopes"),
    ("repro.crypto.ecdsa.P*Key.__getstate__", "safety",
     "a used key pickles and deep-copies: its OpenSSL handle stays out"),
    ("repro.tee.attestation.AttestationService.revoke_platform", "safety",
     "fills the revocation list every quote verification consults"),
    # -- test oracles ----------------------------------------------------
    ("repro.chain.transaction.Transaction.verify_signature", "oracle",
     "the one-signature check batch verification is compared against"),
    ("repro.crypto.ecdsa.Signature.to_bytes", "oracle",
     "the encoder the wire decoder's round trips are checked against"),
    ("repro.ml.models.LinearRegressionModel.loss", "oracle",
     "what the finite-difference gradient check differentiates"),
    ("repro.ml.models.SoftmaxRegressionModel.loss", "oracle",
     "what the finite-difference gradient check differentiates"),
    ("repro.kernels.gossip_kernel.GossipKernelTrainer.final_ages", "oracle",
     "the kernel engine's ages, compared with the per-node oracle's"),
    # -- token-standard and contract ABI surface -------------------------
    ("repro.chain.tokens.erc20.ERC20Token.name", "abi", "ERC-20 view"),
    ("repro.chain.tokens.erc20.ERC20Token.symbol", "abi", "ERC-20 view"),
    ("repro.chain.tokens.erc20.ERC20Token.decimals", "abi", "ERC-20 view"),
    ("repro.chain.tokens.erc20.ERC20Token.burn", "abi", "ERC-20 burn"),
    ("repro.chain.tokens.erc721.ERC721Token.name", "abi", "ERC-721 view"),
    ("repro.chain.tokens.erc721.ERC721Token.symbol", "abi", "ERC-721 view"),
    ("repro.chain.tokens.erc721.ERC721Token.token_uri", "abi",
     "ERC-721 metadata view"),
    ("repro.chain.tokens.erc721.ERC721Token.content_hash", "abi",
     "the data deed's content hash view"),
    ("repro.chain.tokens.erc721.ERC721Token.get_approved", "abi",
     "ERC-721 view"),
    ("repro.chain.tokens.erc721.ERC721Token.is_approved_for_all", "abi",
     "ERC-721 view"),
    ("repro.chain.tokens.erc721.ERC721Token.approve", "abi", "ERC-721 approve"),
    ("repro.chain.tokens.erc721.ERC721Token.set_approval_for_all", "abi",
     "ERC-721 operator approval"),
    ("repro.chain.tokens.erc721.ERC721Token.burn", "abi", "ERC-721 burn"),
    # -- E25 layers.py probe targets ---------------------------------------
    ("repro.chain.state.WorldState.snapshot", "probe", "chain.state_snapshot"),
    ("repro.chain.state.WorldState.restore", "probe", "chain.state_snapshot"),
    ("repro.crypto.merkle.MerkleTree.verify_proof", "probe", "crypto.merkle"),
    ("repro.crypto.merkle.merkle_root", "probe", "crypto.merkle"),
    ("repro.utils.serialization.from_canonical_json", "probe",
     "serialization.decode; enclave rows stopped being JSON"),
    ("repro.utils.serialization._unwrap", "probe",
     "from_canonical_json's object hook"),
    # -- abstract declarations -------------------------------------------
    ("repro.chain.contract.Contract.setup", "abstract",
     "the constructor hook a contract may override"),
    ("repro.core.events.EventSink.emit", "abstract", "sink protocol"),
    ("repro.core.lifecycle.WorkloadKind.run_kwargs", "abstract",
     "workload kind"),
    ("repro.core.lifecycle.WorkloadKind.combine", "abstract", "workload kind"),
    ("repro.ml.models.Model.num_params", "abstract", "model interface"),
    ("repro.ml.models.Model.loss", "abstract", "model interface"),
    ("repro.ml.models.Model.gradient", "abstract", "model interface"),
    ("repro.ml.models.Model.predict", "abstract", "model interface"),
    ("repro.ml.models.Model.score", "abstract", "model interface"),
    ("repro.storage.base.StorageBackend._store", "abstract",
     "persistence hook"),
    ("repro.storage.base.StorageBackend._load", "abstract",
     "persistence hook"),
    ("repro.storage.base.StorageBackend._exists", "abstract",
     "persistence hook"),
    ("repro.storage.semantic.Requirement.matches", "abstract",
     "requirement predicate"),
    ("repro.storage.semantic.Requirement.to_dict", "abstract",
     "requirement hashed form"),
    ("repro.telemetry.metrics._Metric._new_child", "abstract",
     "one child per metric type"),
    # -- profiler callbacks ------------------------------------------------
    ("repro.telemetry.profiler.Profiler._hook", "profiler",
     "the setprofile callback"),
    ("repro.telemetry.profiler.Profiler._record", "profiler",
     "called from the setprofile callback"),
    ("repro.telemetry.profiler._code_label", "profiler",
     "called from the setprofile callback"),
    # -- paths only --suite full runs --------------------------------------
    ("repro.bench.runner._write_results", "full",
     "writes benchmarks/results/<id>.txt and .metrics.json"),
)


@dataclass(frozen=True)
class EntryPoint:
    """One traced process: ``python ARGV`` from the repository root
    (``-m`` runs a module); ``{tmp}`` is a scratch directory."""

    group: str
    argv: tuple[str, ...]
    exit_code: int = 0


def _cli(*argv: str, exit_code: int = 0) -> EntryPoint:
    return EntryPoint("cli", ("-m", "repro", *argv), exit_code)


FAULT_SCENARIOS = ("crash-execute", "crash-register", "crash-submit",
                   "drop-submission", "churn-provider", "drop-provider",
                   "chain-flaky")

#: A one-experiment BENCH point: E13 (gas only, so deterministic) with one
#: gas metric edited so a run regresses and one so it improves.
E13_BASELINE = "tools/reach_census_e13_baseline.json"

ENTRY_POINTS: tuple[EntryPoint, ...] = (
    # Reach, not regressions: the suite compares against nothing, so no
    # wall clock decides what it enters.  The gate's report is entered on
    # purpose by the E13 run against a baseline it must fail.
    EntryPoint("bench", ("-m", "repro", "bench", "--suite", "quick",
                         "-o", "{tmp}/bench.json")),
    EntryPoint("bench", ("-m", "repro", "bench", "--only", "E13",
                         "--compare", E13_BASELINE,
                         "-o", "{tmp}/e13.json"), exit_code=1),
    *(EntryPoint("e25", ("benchmarks/e25/run.py", "--workload", workload,
                         "--smoke"))
      for workload in ("ml_wide", "agg_sustained", "ml_faulted", "chain_bulk")),
    *(EntryPoint("examples", (f"examples/{name}.py",))
      for name in ("quickstart", "healthcare_gossip", "energy_rewards",
                   "device_authenticity", "private_training",
                   "token_marketplace")),
    _cli("info"),
    _cli("info", "--json"),
    _cli("experiments"),
    _cli("experiments", "--json"),
    _cli("quickstart", "--providers", "4", "--executors", "1", "--seed", "5",
         "--run", "{tmp}/run"),
    _cli("quickstart", "--run", "{tmp}/run", exit_code=2),
    _cli("quickstart", "--providers", "4", "--executors", "2",
         "--dp-epsilon", "1.0", "--json"),
    *(_cli("faults", scenario, "--json") for scenario in FAULT_SCENARIOS),
    _cli("faults", "crash-execute", "--run", "{tmp}/faults"),
    _cli("faults", "crash-execute", "--no-recovery", exit_code=1),
    _cli("faults", "no-such-scenario", exit_code=2),
    *(_cli("aggregate", "--kind", kind)
      for kind in ("mean", "sum", "count", "histogram", "quantile")),
    _cli("aggregate", "--kind", "mean", "--dp-epsilon", "1.0", "--json"),
    _cli("gossip", "--nodes", "16", "--duration", "100", "--json"),
    _cli("gossip", "--nodes", "16", "--duration", "100",
         "--availability", "0.8"),
    _cli("trace", "{tmp}/run"),
    _cli("trace", "{tmp}/run", "--json"),
    _cli("metrics", "{tmp}/run"),
    _cli("metrics", "{tmp}/run/metrics.json", "--json"),
    _cli("metrics", "{tmp}/faults"),
    _cli("spans", "{tmp}/run"),
    _cli("spans", "{tmp}/run", "--json"),
    _cli("top", "{tmp}/run"),
    _cli("chain", "audit", "{tmp}/faults"),
    _cli("profile", "--mode", "calls", "--format", "collapsed",
         "--providers", "4", "--executors", "2"),
    _cli("profile", "--mode", "wall", "--providers", "4", "--executors", "2"),
    _cli("profile", "--mode", "sim", "--providers", "4", "--executors", "2",
         "--json"),
    _cli("batch", "submit", "{tmp}/batch", "--jobs", "12", "--workers", "2",
         "--fault-rate", "0.4", "--fault-every", "3",
         "--kill-worker-after", "3", "--json"),
    _cli("batch", "resume", "{tmp}/batch", "--workers", "1"),
    _cli("batch", "trace", "{tmp}/batch", "--chrome", "{tmp}/chrome.json"),
    _cli("batch", "trace", "{tmp}/batch", "--json"),
    _cli("spans", "{tmp}/batch"),
    _cli("top", "{tmp}/batch"),
    _cli("top", "{tmp}/batch", "--json"),
    _cli("metrics", "{tmp}/batch"),
    _cli("batch", "submit", "{tmp}/held", "--jobs", "4", "--no-execute"),
    _cli("batch", "kill", "{tmp}/held"),
    _cli("top", "{tmp}/held"),
    _cli("chain", "run", "{tmp}/chain", "--blocks", "6", "--seed", "7"),
    _cli("top", "{tmp}/chain", "--watch", "1"),
    _cli("top", "{tmp}/chain", "--json"),
    _cli("chain", "audit", "{tmp}/chain"),
    _cli("chain", "audit", "{tmp}/chain", "--json"),
    _cli("chain", "run", "{tmp}/chain-bad", "--blocks", "6", "--seed", "7",
         "--corrupt-block", "3"),
    _cli("top", "{tmp}/chain-bad"),
    _cli("chain", "audit", "{tmp}/chain-bad", exit_code=1),
    EntryPoint("tests", ("-m", "pytest", "-q", "-p", "no:cacheprovider")),
)


# ---------------------------------------------------------------------------
# The hook, inside each traced process
# ---------------------------------------------------------------------------


def _install_hook(out_dir: str, source_dir: str) -> None:
    import atexit
    import threading

    seen: dict[int, object] = {}

    def hook(frame, event, arg):
        code = frame.f_code
        seen[id(code)] = code      # keeps the code alive, so ids stay unique

    def flush() -> None:
        sys.settrace(None)         # flush's own frames would grow ``seen``
        threading.settrace(None)
        entered = sorted({
            f"{os.path.realpath(code.co_filename)}:{code.co_firstlineno}:"
            f"{code.co_name}" for code in list(seen.values())})
        entered = [line for line in entered if line.startswith(source_dir)]
        with open(os.path.join(out_dir, f"{os.getpid()}.txt"), "w",
                  encoding="utf-8") as handle:
            handle.write("".join(f"{line}\n" for line in entered))

    def rearm() -> None:
        seen.clear()
        threading.settrace(hook)
        sys.settrace(hook)

    real_exit = os._exit

    def exit_after_flush(code: int) -> None:
        try:
            flush()
        finally:
            real_exit(code)

    os._exit = exit_after_flush
    os.register_at_fork(after_in_child=rearm)
    atexit.register(flush)
    threading.settrace(hook)
    sys.settrace(hook)


def _run_traced(out_dir: str, source_dir: str, argv: list[str]) -> None:
    """Run ``python ARGV`` in this process, as the interpreter would."""
    import runpy

    _install_hook(out_dir, source_dir)
    if argv[0] == "-m":
        sys.argv = [argv[1], *argv[2:]]
        sys.path[0] = os.getcwd()
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = list(argv)
        sys.path[0] = os.path.dirname(os.path.abspath(argv[0]))
        runpy.run_path(argv[0], run_name="__main__")


# ---------------------------------------------------------------------------
# Definitions and their classification
# ---------------------------------------------------------------------------


@dataclass
class Function:
    """One ``def`` under the source root."""

    module: str
    qualname: str
    path: str                   # relative to the repository
    line: int                   # the code object's first line
    name: str
    lines: int                  # the def's own lines, nested defs excluded
    entered_by: set[str] = field(default_factory=set)

    @property
    def key(self) -> str:
        return f"{self.module}.{self.qualname}"

    @property
    def status(self) -> str:
        if self.entered_by & set(PRODUCTION_GROUPS):
            return "entered"
        return "tests-only" if "tests" in self.entered_by else "unentered"


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(node: ast.AST, prefix: str):
    """``(qualname, node)`` for every def and class under ``node``, named
    as ``__qualname__`` names them (``outer.<locals>.inner``)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            qualname = f"{prefix}{child.name}"
            yield qualname, child
            yield from _definitions(child, f"{qualname}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield f"{prefix}{child.name}", child
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def _first_line(node: ast.AST) -> int:
    """``co_firstlineno``: a decorated def's code starts at its decorator."""
    return min([node.lineno, *(d.lineno for d in node.decorator_list)])


def _span(node: ast.AST) -> int:
    return node.end_lineno - _first_line(node) + 1


def _own_lines(node: ast.AST) -> int:
    """A def's lines less those of the defs directly inside it."""
    inner, stack = 0, list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _DEFS):
            inner += _span(child)
        else:
            stack.extend(ast.iter_child_nodes(child))
    return _span(node) - inner


def collect(repo: Path) -> tuple[list[Function], set[tuple[str, int, str]]]:
    """Every def under the source root, and the ``(path, line, name)``
    sites of class bodies (whose code objects the hook also sees)."""
    functions, classes = [], set()
    source = repo / SOURCE_ROOT
    for path in sorted(source.rglob("*.py")):
        parts = path.relative_to(source.parent).with_suffix("").parts
        module = ".".join(parts).removesuffix(".__init__")
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for qualname, node in _definitions(tree, ""):
            if isinstance(node, ast.ClassDef):
                classes.add((str(path.resolve()), _first_line(node), node.name))
                continue
            functions.append(Function(
                module, qualname, str(path.relative_to(repo)),
                _first_line(node), node.name, _own_lines(node)))
    return functions, classes


@dataclass
class Census:
    functions: list[Function]
    #: entry point -> the exit code it returned
    exits: dict[EntryPoint, int]
    #: traced code objects under the source root that match no def
    unmatched: list[str]

    def uncovered(self) -> list[Function]:
        return [f for f in self.functions if f.status != "entered"]


def _trace(repo: Path, entry: EntryPoint, out_dir: Path, tmp: str) -> int:
    out_dir.mkdir(parents=True)
    argv = [arg.replace("{tmp}", tmp) for arg in entry.argv]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    with open(out_dir / "output.log", "w", encoding="utf-8") as log:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--traced",
             str(out_dir), str(repo / SOURCE_ROOT), *argv],
            cwd=repo, env=env, stdout=log, stderr=subprocess.STDOUT)
    return done.returncode


def run_census(repo: Path,
               entry_points: tuple[EntryPoint, ...] = ENTRY_POINTS) -> Census:
    """Trace every entry point and classify every def under ``repo``.

    CLI invocations run one after another in one scratch directory, since
    later commands read what earlier ones wrote; the other entry points
    run beside them.
    """
    functions, classes = collect(repo)
    by_site = {(str((repo / f.path).resolve()), f.line, f.name): f
               for f in functions}
    exits: dict[EntryPoint, int] = {}
    with tempfile.TemporaryDirectory(prefix="reach-census-") as scratch:
        root = Path(scratch)
        dirs = {entry: root / "traces" / str(index)
                for index, entry in enumerate(entry_points)}

        def run(entries: list[EntryPoint]) -> None:
            for entry in entries:
                exits[entry] = code = _trace(repo, entry, dirs[entry], scratch)
                if code != entry.exit_code:    # the log dies with scratch
                    log = (dirs[entry] / "output.log").read_text("utf-8")
                    tail = "\n".join(log.splitlines()[-20:])
                    print(f"--- python {' '.join(entry.argv)} exited {code}:"
                          f"\n{tail}", file=sys.stderr)

        cli = [e for e in entry_points if e.group == "cli"]
        lanes = [[e] for e in entry_points if e.group != "cli"]
        lanes = sorted(lanes + ([cli] if cli else []),
                       key=lambda lane: lane[0].group != "tests")
        with ThreadPoolExecutor(PARALLEL) as pool:
            for future in [pool.submit(run, lane) for lane in lanes]:
                future.result()
        unmatched = set()
        for entry, out_dir in dirs.items():
            for trace in out_dir.glob("*.txt"):
                for line in trace.read_text(encoding="utf-8").splitlines():
                    path, lineno, name = line.rsplit(":", 2)
                    function = by_site.get((path, int(lineno), name))
                    if function is None:
                        site = (path, int(lineno), name)
                        if not name.startswith("<") and site not in classes:
                            unmatched.add(line)
                        continue
                    function.entered_by.add(entry.group)
    return Census(functions, exits, sorted(unmatched))


def allowed_by(function: Function,
               allowlist=ALLOWLIST) -> tuple[str, str, str] | None:
    for entry in allowlist:
        if fnmatch.fnmatchcase(function.key, entry[0]):
            return entry
    return None


def check(census: Census, allowlist=ALLOWLIST) -> list[str]:
    problems = [f"{entry.group} entry point `python {' '.join(entry.argv)}` "
                f"exited {code}, not {entry.exit_code}"
                for entry, code in census.exits.items()
                if code != entry.exit_code]
    problems += [f"traced code matches no def: {line}"
                 for line in census.unmatched]
    problems += [f"{f.status}, not on the allowlist: {f.key} ({f.path}:{f.line})"
                 for f in census.uncovered() if allowed_by(f, allowlist) is None]
    for pattern, reason, _ in allowlist:
        matched = [f for f in census.functions
                   if fnmatch.fnmatchcase(f.key, pattern)]
        if reason not in REASONS:
            problems.append(f"allowlist entry {pattern}: reason {reason!r} "
                            f"is not one of {', '.join(REASONS)}")
        if not matched:
            problems.append(f"allowlist entry matches nothing: {pattern}")
        problems += [f"allowlist entry {pattern} matches an entered "
                     f"function: {f.key}" for f in matched
                     if f.status == "entered"]
    return problems


def coverage_matrix(census: Census) -> dict[str, dict[str, str]]:
    """``{module: {entry-point group: "covered" | "uncovered"}}``: covered
    when the group enters at least one def of the module; the extra
    column ``"uncovered"`` counts defs nothing but a test (or nothing)
    enters."""
    matrix: dict[str, dict[str, str]] = {}
    by_module: dict[str, list[Function]] = defaultdict(list)
    for function in census.functions:
        by_module[function.module].append(function)
    for module, functions in sorted(by_module.items()):
        row = {group: "covered" if any(group in f.entered_by for f in functions)
               else "uncovered" for group in GROUPS}
        row["uncovered"] = str(sum(f.status != "entered" for f in functions))
        matrix[module] = row
    return matrix


def render(census: Census, allowlist=ALLOWLIST) -> list[str]:
    matrix = coverage_matrix(census)
    width = max(len(module) for module in matrix)
    columns = [*GROUPS, "uncovered"]
    lines = [f"{'module':<{width}}  " + "  ".join(f"{c:>9}" for c in columns)]
    for module, row in matrix.items():
        lines.append(f"{module:<{width}}  " + "  ".join(
            f"{row[c]:>9}" for c in columns))
    lines.append("")
    for function in census.uncovered():
        entry = allowed_by(function, allowlist)
        why = f"allowlisted: {entry[1]}" if entry else "NOT ALLOWLISTED"
        lines.append(f"{function.status:<10} {function.lines:4d}  "
                     f"{function.key}  [{why}]")
    counts = {status: [f for f in census.functions if f.status == status]
              for status in ("entered", "tests-only", "unentered")}
    lines.append("")
    lines.append(", ".join(
        f"{len(found)} {status} ({sum(f.lines for f in found)} lines)"
        for status, found in counts.items())
        + f" of {len(census.functions)} functions")
    return lines


def design_table(allowlist=ALLOWLIST) -> str:
    """DESIGN's allowlist table, as markdown: one row per reason."""
    by_reason: dict[str, list[str]] = defaultdict(list)
    for pattern, reason, _ in allowlist:
        by_reason[reason].append(f"`{pattern.removeprefix('repro.')}`")
    lines = ["| why it stays | functions |", "|---|---|"]
    lines += [f"| {REASONS.get(reason, reason)} | {', '.join(names)} |"
              for reason, names in by_reason.items()]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--traced"]:
        _run_traced(argv[1], argv[2], argv[3:])
        return 0
    repo = Path(__file__).resolve().parent.parent
    if "--table" in argv:
        print(design_table())
        return 0
    census = run_census(repo)
    for line in render(census):
        print(line)
    if "--check" not in argv:
        return 0
    problems = check(census)
    if design_table() not in (repo / "DESIGN.md").read_text("utf-8"):
        problems.append("DESIGN.md's table is stale: paste the output of --table")
    for line in problems:
        print(line)
    print(f"reach_census: {len(problems)} problem(s)", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
