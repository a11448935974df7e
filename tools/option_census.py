#!/usr/bin/env python3
"""Option census: who sets each defaulted value in ``src/repro``?

For every defaulted parameter of a module-level function or method and
every defaulted dataclass field under ``src/repro``, count the call sites
that set it — by keyword, by position, or through ``*args`` / ``**kwargs``
(a starred call may set anything, so it counts for everything it can
reach) — separately for production code (``src``, ``benchmarks``,
``examples``) and for ``tests``.  Standard library ``ast`` only.

A call is matched to definitions by name: ``foo(...)`` to every function or
class named ``foo`` (narrowed by the file's own ``from … import foo`` when
that leaves a candidate), ``x.foo(...)`` to every method, function or class
of that name, ``cls(...)`` to the class it is written in.  The match
over-approximates, so "production-unset" is a lower bound: a value it
reports has no production call site that could be setting it.

    python tools/option_census.py            # the production-unset list
    python tools/option_census.py --all      # every defaulted value
    python tools/option_census.py --check    # CI: ceiling and allowlist
    python tools/option_census.py --table    # DESIGN's table, as markdown

An *option* nobody in production sets should be a constant (ROADMAP: "flags
deleted once they have one sane value").  What stays settable without a
production setter is listed in ``ALLOWLIST`` below, one reason per entry;
``--check`` fails when a production-unset value is on no entry, when an
entry matches nothing any more, or when the count is above
``PRODUCTION_UNSET_CEILING``.
"""

from __future__ import annotations

import ast
import fnmatch
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from lint_ast import python_files

SOURCE_ROOT = "src/repro"
PRODUCTION_ROOTS = ("src", "benchmarks", "examples")
TEST_ROOTS = ("tests",)

#: ``--check`` fails above this; lower it whenever the count falls.
PRODUCTION_UNSET_CEILING = 116

#: Production-unset values that stay settable: ``(pattern, reason)``, the
#: pattern an ``fnmatch`` glob over ``module.owner(param)`` /
#: ``module.Class.field``.
ALLOWLIST: tuple[tuple[str, str], ...] = (
    # -- paths: deployment settings ------------------------------------
    ("repro.bench.runner.run_suite(bench_dir)",
     "path: where the benchmark modules live"),
    ("repro.bench.schema.provenance(cwd)", "path: the checkout to describe"),
    ("repro.bench.schema.source_lines(package_root)",
     "path: the package to count"),
    # -- clocks and seams a test substitutes ---------------------------
    ("repro.core.events.EventBus.__init__(*)",
     "clocks: a test substitutes both to pin wall_time and timestamp"),
    ("repro.telemetry.tracing.Tracer.__init__(sim_clock)",
     "clock: tests build tracers over a fake sim clock"),
    ("repro.telemetry.profiler.Profiler.__init__(*)",
     "clock and tracer: tests profile against private ones"),
    ("repro.cli.main(argv)",
     "argv: sys.argv unless a test or an embedding caller passes its own"),
    # -- protocol features the paper names -----------------------------
    ("repro.tee.enclave.Enclave.extract_output(recipient_public_key)",
     "protocol: results encrypted to the consumer's key (Section III-B)"),
    ("repro.core.marketplace.Marketplace.add_provider(*)",
     "protocol: a provider's own storage backend and participation policy"),
    ("repro.identity.authenticity.AuthenticityVerifier.*",
     "protocol: the freshness window against replayed readings, and its clock"),
    ("repro.ml.gossip.GossipTrainer(upload_bytes_per_s)",
     "protocol: heterogeneous device uplinks (Section III-C)"),
    ("repro.ml.gossip.GossipConfig.*",
     "protocol parameters of gossip learning; E5/E6/E14/E15 sweep the others"),
    ("repro.ml.federated.FederatedConfig.*",
     "protocol parameters of the FedAvg baseline; E5 sets the others"),
    # -- fields of persisted or signed formats -------------------------
    ("repro.chain.transaction.Transaction.*", "signed format: a transaction"),
    ("repro.chain.transaction.Receipt.*", "persisted format: a receipt"),
    ("repro.chain.block.BlockHeader.*", "sealed format: a block header"),
    ("repro.chain.blockchain.Wallet.*_and_mine(*)",
     "Transaction.value and gas_limit, passed through by the wallet"),
    ("repro.chain.tokens.erc721.ERC721Token.mint(*)",
     "contract ABI: arguments arrive in a transaction payload"),
    ("repro.core.resilience.FaultPlan.single(point)",
     "fault-plan DSL: Fault.point pins a chain fault to one injection point"),
    ("repro.privacy.leakage.WorkloadRiskProfile.*",
     "input record: the workload being assessed"),
    ("repro.tee.cost_model.WorkloadProfile.*",
     "input record: the workload being costed"),
    # -- safety paths only a small value reaches -----------------------
    ("repro.chain.blockchain.Blockchain.__init__(block_gas_limit)",
     "the mempool-deferral tests reach that path only with small blocks"),
    ("repro.rewards.distribution.normalize_weights_bps(total)",
     "the largest-remainder rounding test needs a total that does not divide"),
    # -- parameters of analytic models and synthetic problems ----------
    ("repro.tee.cost_model.CostModel.*",
     "analytic cost-model parameters; E3/E4 print them, tests vary them"),
    ("repro.rewards.economics.*.*",
     "analytic economics parameters; E17 prints them, tests vary them"),
    # -- state records: defaults are initial state, not settings -------
    ("repro.core.lifecycle.SessionContext.*", "state record: one session"),
    ("repro.core.actors.*Actor.*", "state record: one actor"),
    ("repro.chain.state.WorldState.*", "state record: the ledger"),
    ("repro.control.batch._Worker.*", "state record: one worker process"),
    ("repro.storage.base.TransferLog.*", "state record: transfer totals"),
    ("repro.storage.cloud.KeyKeeper.*", "state record: one key keeper"),
    ("repro.storage.swarm.SwarmNode.*", "state record: one swarm node"),
    ("repro.storage.catalog.DataCatalog.*", "state record: the catalog"),
    ("repro.crypto.smc.CommunicationLog.*", "state record: SMC traffic"),
    ("repro.identity.device.IoTDevice.*", "state record: one device"),
    ("repro.identity.authenticity.VerificationStats.*",
     "state record: verifier tallies"),
    ("repro.rewards.shapley.DataValuationTask.*", "state record: a cache"),
    ("repro.bench.compare.ComparisonReport.*",
     "result record: one comparison"),
)


@dataclass
class Option:
    """One defaulted parameter or dataclass field."""

    module: str
    owner: str                     # "func", "Class.method" or "Class"
    name: str
    default: str
    position: int | None           # index among positional arguments
    is_field: bool = False
    production: list[str] = field(default_factory=list)   # "path:line"
    tests: list[str] = field(default_factory=list)

    @property
    def key(self) -> str:
        if self.is_field:
            return f"{self.module}.{self.owner}.{self.name}"
        return f"{self.module}.{self.owner}({self.name})"


@dataclass
class Callee:
    """What one definition lets a call of its name set."""

    module: str
    options: list[Option]


def _name_of(node: ast.expr) -> str:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _name_of(deco.func if isinstance(deco, ast.Call) else deco) == "dataclass"
        for deco in node.decorator_list)


def _field_default(value: ast.expr | None) -> tuple[bool, bool]:
    """``(is an init field, has a default)`` for a dataclass assignment."""
    if value is None:
        return True, False
    if isinstance(value, ast.Call) and _name_of(value.func) == "field":
        keywords = {kw.arg: kw.value for kw in value.keywords}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return False, False
        return True, "default" in keywords or "default_factory" in keywords
    return True, True


class Census:
    """Definitions under one source root, and the call sites that reach them."""

    def __init__(self, source_root: Path):
        self.options: list[Option] = []
        #: callable name -> the definitions a call of that name may reach
        self.callees: dict[str, list[Callee]] = defaultdict(list)
        #: dataclass field name -> options (``dataclasses.replace`` reaches them)
        self.fields: dict[str, list[Option]] = defaultdict(list)
        self._classes: dict[str, tuple[str, ast.ClassDef]] = {}
        self._inits: dict[str, Callee] = {}
        self._field_cache: dict[str, list[Option]] = {}
        for path in python_files([source_root]):
            parts = path.relative_to(source_root.parent).with_suffix("").parts
            module = ".".join(parts).removesuffix(".__init__")
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            self._collect(module, tree.body, owner="")
        for name in self._classes:
            self._bind_class(name)

    # -- definitions ---------------------------------------------------

    def _collect(self, module: str, body: list[ast.stmt], owner: str) -> None:
        """Functions and methods of one module or class body (functions
        nested in functions are closures, not API, and are skipped)."""
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callee = Callee(module, self._parameters(module, node, owner))
                self.options.extend(callee.options)
                if node.name == "__init__":
                    self._inits[owner] = callee
                else:
                    self.callees[node.name].append(callee)
            elif isinstance(node, ast.ClassDef):
                self._classes[node.name] = (module, node)
                self._collect(module, node.body, owner=node.name)

    @staticmethod
    def _parameters(module: str, node: ast.FunctionDef, owner: str) -> list[Option]:
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        static = any(_name_of(d) == "staticmethod" for d in node.decorator_list)
        if owner and not static:
            positional = positional[1:]               # self / cls
        qualname = f"{owner}.{node.name}" if owner else node.name
        found = []
        defaults = args.defaults[-len(positional):] if positional else []
        first_default = len(positional) - len(defaults)
        for index, default in enumerate(defaults, start=first_default):
            found.append(Option(module, qualname, positional[index].arg,
                                ast.unparse(default), index))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append(Option(module, qualname, arg.arg,
                                    ast.unparse(default), None))
        return found

    def _dataclass_fields(self, name: str) -> list[Option]:
        """Init fields of dataclass ``name`` in order, inherited ones first;
        a field without a default has ``default == ""``."""
        if name in self._field_cache:
            return self._field_cache[name]
        module, node = self._classes[name]
        found: list[Option] = []
        self._field_cache[name] = found
        for base in map(_name_of, node.bases):
            if base in self._classes and base != name \
                    and _is_dataclass(self._classes[base][1]):
                found.extend(self._dataclass_fields(base))
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)) \
                    or "ClassVar" in ast.unparse(stmt.annotation):
                continue
            init, defaulted = _field_default(stmt.value)
            if init:
                default = ast.unparse(stmt.value) if defaulted else ""
                found.append(Option(module, name, stmt.target.id, default,
                                    len(found), is_field=True))
        return found

    def _bind_class(self, name: str) -> None:
        """``Cls(...)`` sets dataclass fields, or the parameters of the
        nearest ``__init__`` up the bases."""
        module, node = self._classes[name]
        if _is_dataclass(node):
            fields = [o for o in self._dataclass_fields(name) if o.default]
            own = [o for o in fields if o.owner == name]
            self.options.extend(own)
            for option in own:
                self.fields[option.name].append(option)
            self.callees[name].append(Callee(module, fields))
            return
        seen: set[str] = set()
        while name in self._classes and name not in seen:
            seen.add(name)
            if name in self._inits:
                self.callees[node.name].append(self._inits[name])
                return
            bases = map(_name_of, self._classes[name][1].bases)
            name = next((b for b in bases if b in self._classes), "")

    # -- call sites ----------------------------------------------------

    def count(self, roots: list[Path], production: bool) -> None:
        for path in python_files(roots):
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            except SyntaxError:
                continue
            imported = {
                alias.asname or alias.name: node.module or ""
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names
            }
            self._visit(tree, "", imported, str(path), production)

    def _visit(self, node: ast.AST, enclosing: str, imported: dict[str, str],
               path: str, production: bool) -> None:
        if isinstance(node, ast.ClassDef):
            enclosing = node.name
        elif isinstance(node, ast.Call):
            self._call(node, enclosing, imported, f"{path}:{node.lineno}", production)
        for child in ast.iter_child_nodes(node):
            self._visit(child, enclosing, imported, path, production)

    def _call(self, node: ast.Call, enclosing: str, imported: dict[str, str],
              where: str, production: bool) -> None:
        func, args = node.func, list(node.args)
        if _name_of(func) == "partial" and args:      # partial(f, …) calls f later
            func, args = args[0], args[1:]
        name = _name_of(func)
        if name == "cls" and enclosing:
            name = enclosing
        keywords = {kw.arg for kw in node.keywords}
        reached = []
        if name == "replace":                         # dataclasses.replace(obj, field=…)
            reached = [option for keyword in keywords - {None}
                       for option in self.fields.get(keyword, ())]
        candidates = self.callees.get(name, ())
        if isinstance(func, ast.Name) and name in imported:
            narrowed = [c for c in candidates
                        if c.module.startswith(imported[name].lstrip("."))]
            candidates = narrowed or candidates
        starred = any(isinstance(a, ast.Starred) for a in args)
        for callee in candidates:
            for option in callee.options:
                if (option.name in keywords or None in keywords or
                        (option.position is not None and
                         (starred or len(args) > option.position))):
                    reached.append(option)
        for option in reached:
            (option.production if production else option.tests).append(where)


def run_census(repo: Path) -> list[Option]:
    census = Census(repo / SOURCE_ROOT)
    census.count([repo / root for root in PRODUCTION_ROOTS], production=True)
    census.count([repo / root for root in TEST_ROOTS], production=False)
    return sorted(census.options, key=lambda o: o.key)


def allowed_by(option: Option) -> str | None:
    """The reason ``option`` may stay production-unset, if it is listed."""
    for pattern, reason in ALLOWLIST:
        if fnmatch.fnmatchcase(option.key, pattern):
            return reason
    return None


def check(options: list[Option]) -> list[str]:
    unset = [o for o in options if not o.production]
    problems = [f"not on the allowlist: {o.key} = {o.default}"
                for o in unset if allowed_by(o) is None]
    for pattern, _ in ALLOWLIST:
        if not any(fnmatch.fnmatchcase(o.key, pattern) for o in unset):
            problems.append(f"allowlist entry matches nothing production-unset: {pattern}")
    if len(unset) > PRODUCTION_UNSET_CEILING:
        problems.append(f"production-unset count {len(unset)} is above the "
                        f"ceiling {PRODUCTION_UNSET_CEILING}")
    return problems


def _short(where: str, repo: Path) -> str:
    path = Path(where.rsplit(":", 1)[0]).relative_to(repo)
    return str(path).removeprefix("src/repro/").removesuffix(".py")


def design_table(options: list[Option], repo: Path) -> str:
    """DESIGN's "What is configurable, and who sets it", as markdown: one
    row per function or class with a value some *other* production module
    sets (methods are left out: matched by name alone, their rows are
    mostly other classes' callers), then the allowlist."""
    rows: dict[str, tuple[set[str], set[str]]] = {}
    for option in options:
        own = option.module.removeprefix("repro.").replace(".", "/")
        setters = {_short(w, repo) for w in option.production} - {own}
        if "." in option.owner.removesuffix(".__init__"):
            continue
        if setters:
            owner = f"{option.module.removeprefix('repro.')}.{option.owner}"
            names, files = rows.setdefault(owner.removesuffix(".__init__"),
                                           (set(), set()))
            names.add(option.name)
            files |= setters
    lines = ["| owner | settable | set by |", "|---|---|---|"]
    for owner, (names, files) in sorted(rows.items()):
        shown = sorted(files)
        if len(shown) > 4:
            shown = [*shown[:3], f"+{len(shown) - 3} more"]
        lines.append(f"| `{owner}` | {', '.join(f'`{n}`' for n in sorted(names))} "
                     f"| {', '.join(shown)} |")
    lines += ["", "| settable with no production setter | why it stays |", "|---|---|"]
    lines += [f"| `{pattern.removeprefix('repro.')}` | {reason} |"
              for pattern, reason in ALLOWLIST]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    repo = Path(__file__).resolve().parent.parent
    options = run_census(repo)
    unset = [o for o in options if not o.production]
    if "--table" in argv:
        print(design_table(options, repo))
        return 0
    if "--check" in argv:
        problems = check(options)
        if design_table(options, repo) not in (repo / "DESIGN.md").read_text("utf-8"):
            problems.append("DESIGN.md's table is stale: paste the output of --table")
        for line in problems:
            print(line)
        print(f"option_census: {len(options)} defaulted, {len(unset)} production-unset "
              f"(ceiling {PRODUCTION_UNSET_CEILING}), {len(problems)} problem(s)",
              file=sys.stderr)
        return 1 if problems else 0
    for option in (options if "--all" in argv else unset):
        print(f"{len(option.production):4d} {len(option.tests):4d}  "
              f"{option.key} = {option.default}")
    print(f"option_census: {len(options)} defaulted, {len(unset)} production-unset",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
