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
that leaves a candidate), ``cls(...)`` to the class it is written in.  A
method call ``x.foo(...)`` is matched only where the AST names the
receiver's class: ``self``/``cls``/``super()`` in a class body, a class
name, a name the same function (or module) binds from ``Class(...)`` only,
or a module (``ecdsa.foo(...)`` reaches that module's ``foo``; a module
outside ``src/repro`` reaches nothing).  Any other receiver — a parameter,
an attribute, a third-party object such as a ``cryptography`` key whose
``verify(signature, data, algorithm)`` shares a name with ours — is
*ambiguous*: ``--all`` lists it, and it sets nothing.  A test's ambiguous
call site is counted apart, in a third column, against every method of
that name it could set: tests reach methods through fixtures and
parameters, which the AST cannot type, so the ``tests`` column alone
under-reports.

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
PRODUCTION_UNSET_CEILING = 115

#: Production-unset values that stay settable: ``(pattern, reason)``, the
#: pattern an ``fnmatch`` glob over ``module.owner(param)`` /
#: ``module.Class.field``.
ALLOWLIST: tuple[tuple[str, str], ...] = (
    # -- paths: deployment settings ------------------------------------
    ("repro.bench.runner.run_suite(bench_dir)",
     "path: where the benchmark modules live"),
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
    ("repro.chain.blockchain.Wallet.transfer(gas_limit)",
     "Transaction.gas_limit: block-packing tests fit more transfers per block"),
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
    # -- set through a receiver whose class the AST does not name --------
    ("repro.telemetry.metrics._CounterChild.inc(amount)",
     "set as metric.labels(...).inc(n): labels() returns each metric's own "
     "child class"),
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
    #: test call sites on an untyped receiver that may set it, by name
    ambiguous_tests: list[str] = field(default_factory=list)

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
    owner: str = ""        # the class of a method; "" for a function or class
    returns: object = None    # its return annotation, then the class it names


def _annotated(annotation: ast.expr | None, classes: set[str]) -> str | None:
    """The one known class an annotation names: ``X``, ``"X"``, ``m.X``,
    ``Optional[X]`` or ``X | None``; None for anything else."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.Subscript) and _name_of(annotation.value) in (
            "Optional", "type"):                 # a class object: called, an instance
        return _annotated(annotation.slice, classes)
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        sides = [side for side in (annotation.left, annotation.right)
                 if not (isinstance(side, ast.Constant) and side.value is None)]
        return _annotated(sides[0], classes) if len(sides) == 1 else None
    if isinstance(annotation, (ast.Name, ast.Attribute)):
        name = _name_of(annotation)
        return name if name in classes else None
    return None


def _bindings(scope: ast.AST, classes: set[str]) -> dict[str, list]:
    """What each name ``scope`` binds may hold: a class name (from an
    annotation), an expression whose type is looked up when needed, or
    None (unknown).  Nested functions and classes are scopes of their own
    and are skipped."""
    bound: dict[str, list] = defaultdict(list)
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                    args.vararg, args.kwarg]:
            if arg is not None and arg.arg not in ("self", "cls"):
                bound[arg.arg].append(_annotated(arg.annotation, classes))
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            bound[node.targets[0].id].append(node.value)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound[node.target.id].append(_annotated(node.annotation, classes))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.For, ast.With,
                               ast.comprehension, ast.NamedExpr)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [item.optional_vars for item in node.items]
                       if isinstance(node, ast.With) else [node.target])
            for target in filter(None, targets):
                for name in _bound_names(target):
                    bound[name].append(None)
    return bound


def _bound_names(target: ast.expr) -> list[str]:
    """The names an assignment target binds (``a``, ``a, *b``; not the
    ``a`` of ``a.x = …`` or ``a[i] = …``)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for element in target.elts for name in _bound_names(element)]
    return []


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
        self.modules: set[str] = set()
        #: method calls whose receiver's class the AST does not name:
        #: ``(where, name)``, listed by ``--all`` and counted for nothing
        self.ambiguous: list[tuple[str, str]] = []
        for path in python_files([source_root]):
            parts = path.relative_to(source_root.parent).with_suffix("").parts
            module = ".".join(parts).removesuffix(".__init__")
            self.modules.add(module)
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            self._collect(module, tree.body, owner="")
        for name in self._classes:
            self._bind_class(name)
        classes = set(self._classes)
        for callee in (c for found in self.callees.values() for c in found):
            callee.returns = _annotated(callee.returns, classes)
        #: class -> attribute -> the one known class it holds
        self.attributes = {name: self._attribute_types(node, classes)
                           for name, (_, node) in self._classes.items()}

    @staticmethod
    def _attribute_types(node: ast.ClassDef, classes: set[str]) -> dict[str, str]:
        """``name: X`` in the class body, and ``self.name: X = …``,
        ``self.name = X(...)`` or ``self.name = param`` (``param: X``) in
        its methods; a name given two classes is left out."""
        found: dict[str, set] = defaultdict(set)
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                found[stmt.target.id].add(_annotated(stmt.annotation, classes))
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = {arg.arg: _annotated(arg.annotation, classes)
                      for arg in [*stmt.args.args, *stmt.args.kwonlyargs]}
            for assign in ast.walk(stmt):
                if isinstance(assign, ast.Assign) and len(assign.targets) == 1:
                    target, value, annotation = assign.targets[0], assign.value, None
                elif isinstance(assign, ast.AnnAssign):
                    target, value, annotation = (assign.target, assign.value,
                                                 assign.annotation)
                else:
                    continue
                if not (isinstance(target, ast.Attribute)
                        and _name_of(target.value) == "self"):
                    continue
                if annotation is not None:
                    held = _annotated(annotation, classes)
                elif isinstance(value, ast.Call):
                    held = _name_of(value.func) if _name_of(value.func) in classes \
                        else None
                elif isinstance(value, ast.Name):
                    held = params.get(value.id)
                else:
                    held = None
                found[target.attr].add(held)
        return {name: held.pop() for name, held in found.items()
                if len(held) == 1 and None not in held}

    # -- definitions ---------------------------------------------------

    def _collect(self, module: str, body: list[ast.stmt], owner: str) -> None:
        """Functions and methods of one module or class body (functions
        nested in functions are closures, not API, and are skipped)."""
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callee = Callee(module, self._parameters(module, node, owner),
                                owner, node.returns)
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
                init = self._inits[name]
                self.callees[node.name].append(Callee(init.module, init.options))
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
            # Names bound to a module: ``import a.b as c`` / ``from a import b``.
            modules = {
                alias.asname or alias.name.partition(".")[0]:
                    alias.name if alias.asname else alias.name.partition(".")[0]
                for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names
            }
            modules.update({
                alias.asname or alias.name: f"{node.module}.{alias.name}"
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                for alias in node.names
                if f"{node.module}.{alias.name}" in self.modules
            })
            scope = _Scope(imported, modules, str(path), production,
                           [_bindings(tree, set(self._classes))])
            self._visit(tree, "", scope)

    def _visit(self, node: ast.AST, enclosing: str, scope: "_Scope") -> None:
        if isinstance(node, ast.ClassDef):
            enclosing = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope.inner(_bindings(node, set(self._classes)))
        elif isinstance(node, ast.Call):
            self._call(node, enclosing, scope)
        for child in ast.iter_child_nodes(node):
            self._visit(child, enclosing, scope)

    def _mro(self, name: str) -> list[str]:
        """``name`` and its known bases, nearest first."""
        order: list[str] = []
        while name in self._classes and name not in order:
            order.append(name)
            bases = map(_name_of, self._classes[name][1].bases)
            name = next((b for b in bases if b in self._classes), "")
        return order

    def _method(self, classes: list[str], name: str) -> list[Callee]:
        """``name`` as the nearest of ``classes`` defines it, plus every
        override in a subclass of the first: the receiver may be one."""
        methods = [c for c in self.callees.get(name, ()) if c.owner]
        found = next(([c for c in methods if c.owner == owner]
                      for owner in classes
                      if any(c.owner == owner for c in methods)), [])
        if classes:
            found += [c for c in methods if c.owner != classes[0]
                      and classes[0] in self._mro(c.owner)[1:]]
        return found

    def _type_of(self, node: ast.expr, enclosing: str, scope: "_Scope",
                 seen: frozenset = frozenset()) -> str | None:
        """The known class of the value ``node`` evaluates to, where the
        AST names it: ``self``, a name bound only to one class's values, an
        attribute a class declares, a constructor, an annotated return."""
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls") and enclosing:
                return enclosing
            if node.id in self._classes:
                return node.id
            if node.id in seen:
                return None
            held = {binding if binding is None or isinstance(binding, str)
                    else self._type_of(binding, enclosing, scope,
                                       seen | {node.id})
                    for binding in scope.lookup(node.id)}
            return held.pop() if len(held) == 1 else None
        if isinstance(node, ast.Attribute):
            owner = self._type_of(node.value, enclosing, scope, seen)
            for cls in self._mro(owner or ""):
                if node.attr in self.attributes[cls]:
                    return self.attributes[cls][node.attr]
            return None
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                if node.func.id in self._classes:
                    return node.func.id
                held = self._type_of(node.func, enclosing, scope, seen)
                if held:                              # a ``type[X]`` value
                    return held
                callees = [c for c in self.callees.get(node.func.id, ())
                           if not c.owner]
            else:
                callees = self._callees_of(node.func, enclosing, scope, seen) or []
            returns = {c.returns for c in callees}
            return returns.pop() if len(returns) == 1 else None
        return None

    def _callees_of(self, func: ast.expr, enclosing: str, scope: "_Scope",
                    seen: frozenset = frozenset()) -> list[Callee] | None:
        """The definitions ``receiver.name(...)`` reaches, or None when the
        AST does not name the receiver's class."""
        if not isinstance(func, ast.Attribute):
            return None
        receiver, name = func.value, func.attr
        if (isinstance(receiver, ast.Call) and _name_of(receiver.func) == "super"
                and enclosing):
            return self._method(self._mro(enclosing)[1:], name) or None
        if isinstance(receiver, ast.Name) and receiver.id in scope.modules \
                and not scope.lookup(receiver.id):
            module = scope.modules[receiver.id]       # a module: its own defs
            return [c for c in self.callees.get(name, ())
                    if c.module == module and not c.owner]
        cls = self._type_of(receiver, enclosing, scope, seen)
        return (self._method(self._mro(cls), name) or None) if cls else None

    def _call(self, node: ast.Call, enclosing: str, scope: "_Scope") -> None:
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
        candidates = [c for c in self.callees.get(name, ()) if not c.owner]
        if isinstance(func, ast.Name) and name in scope.imported:
            narrowed = [c for c in candidates
                        if c.module.startswith(scope.imported[name].lstrip("."))]
            candidates = narrowed or candidates
        elif isinstance(func, ast.Attribute):
            resolved = self._callees_of(func, enclosing, scope)
            if resolved is None:
                candidates = []
                maybe = self._sets(self.callees.get(name, ()), args, keywords)
                if maybe:
                    self.ambiguous.append((scope.where(node), name))
                if not scope.production:
                    for option in maybe:
                        option.ambiguous_tests.append(scope.where(node))
            else:
                candidates = resolved
        elif not isinstance(func, ast.Name):
            candidates = []
        reached += self._sets(candidates, args, keywords)
        for option in reached:
            (option.production if scope.production else option.tests).append(
                scope.where(node))

    @staticmethod
    def _sets(candidates, args: list[ast.expr], keywords: set) -> list[Option]:
        """The options of ``candidates`` a call with these arguments sets."""
        starred = any(isinstance(a, ast.Starred) for a in args)
        return [option for callee in candidates for option in callee.options
                if option.name in keywords or None in keywords
                or (option.position is not None
                    and (starred or len(args) > option.position))]


@dataclass
class _Scope:
    """What one file, and the functions around a call site, tell it."""

    imported: dict[str, str]
    modules: dict[str, str]
    path: str
    production: bool
    #: the bindings of each enclosing scope, outermost (the module) first
    frames: list[dict[str, list]]

    def inner(self, bound: dict[str, list]) -> "_Scope":
        return _Scope(self.imported, self.modules, self.path, self.production,
                      [*self.frames, bound])

    def lookup(self, name: str) -> list:
        """The bindings of ``name`` in the innermost scope that binds it."""
        return next((frame[name] for frame in reversed(self.frames)
                     if name in frame), [])

    def where(self, node: ast.AST) -> str:
        return f"{self.path}:{node.lineno}"


def census_of(repo: Path) -> Census:
    census = Census(repo / SOURCE_ROOT)
    census.count([repo / root for root in PRODUCTION_ROOTS], production=True)
    census.count([repo / root for root in TEST_ROOTS], production=False)
    return census


def run_census(repo: Path) -> list[Option]:
    return sorted(census_of(repo).options, key=lambda o: o.key)


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
    census = census_of(repo)
    options = sorted(census.options, key=lambda o: o.key)
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
    print(f"{'prod':>4} {'test':>4} {'amb.':>4}  option = default "
          "(amb.: test call sites on an untyped receiver)")
    for option in (options if "--all" in argv else unset):
        print(f"{len(option.production):4d} {len(option.tests):4d} "
              f"{len(option.ambiguous_tests):4d}  {option.key} = {option.default}")
    if "--all" in argv:
        for where, name in census.ambiguous:
            print(f"ambiguous  {Path(where).relative_to(repo)}  .{name}(...)")
    print(f"option_census: {len(options)} defaulted, {len(unset)} production-unset",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
