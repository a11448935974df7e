#!/usr/bin/env python3
"""The lint pass a checkout without ``ruff`` can run: unused imports and
line length, from the standard library's ``ast`` alone.

CI runs ``ruff check`` (pyproject.toml: E, W, F, B) *and* this script.  A
change prepared where ruff is not installed has been checked by this pass
only, which covers three of ruff's rules and nothing else:

* **F401** — a name bound by ``import`` / ``from … import`` that the file
  never reads.  A name counts as read when it occurs as an identifier, or
  as a word inside a string constant (quoted annotations, ``__all__``).
* **F811** — an undecorated ``def`` or ``class`` that rebinds a name an
  earlier one in the same module or class body bound.  The later one
  wins, so the earlier (a test class, say) silently stops existing.
* **E501** — a line longer than ``[tool.ruff] line-length`` (100); exempt
  under ``benchmarks/`` and ``examples/``, as in ``per-file-ignores``.

``# noqa`` on the line silences all three, as it does for ruff.

Two structural rules of this repository's own ride along:

* **PDS001** — under ``src/repro/core/`` a call that mines a block
  (``mine_block``, ``_mine``, ``call_and_mine``, ``deploy_and_mine``) may
  appear only in ``Marketplace.drive`` (the loop that mines a block for
  every seam a session or onboarding call awaits, DESIGN §8) and in
  ``Marketplace.__init__`` (the three genesis deploys).
* **PDS002** — under ``src/repro/`` no state is process-wide: a
  module-level container (a ``dict``/``list``/``set`` display or
  comprehension, or a ``dict()``, ``OrderedDict()``, ``deque()``, … call)
  that a function mutates (item assignment or deletion, or a mutating
  method such as ``append``, ``update``, ``clear``, ``move_to_end``), a
  module global a function rebinds (``global`` and an assignment), and a
  module-level ``functools.cache``/``lru_cache``, is reported unless
  ``PROCESS_STATE_ALLOWED`` names it with a reason.  A process runs every
  actor, so such state lets one actor's work become another's (DESIGN
  §6); an allowlist entry that matches nothing is reported too.

    python tools/lint_ast.py [PATH ...]      # default: src tests benchmarks

Exits 1 when anything is reported, 0 otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

LINE_LENGTH = 100
LONG_LINES_ALLOWED = ("benchmarks", "examples")
DEFAULT_PATHS = ("src", "tests", "benchmarks")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
MINING_SCOPE = ("src", "repro", "core")
MINING_CALLS = {"mine_block", "_mine", "call_and_mine", "deploy_and_mine"}
MINING_ALLOWED = {"Marketplace.drive", "Marketplace.__init__"}
STATE_SCOPE = ("src", "repro")
CONTAINER_CALLS = {"dict", "list", "set", "bytearray", "OrderedDict",
                   "defaultdict", "deque", "Counter", "WeakKeyDictionary",
                   "WeakValueDictionary", "WeakSet"}
MUTATING_METHODS = {"append", "extend", "insert", "pop", "popitem", "remove",
                    "discard", "add", "update", "clear", "setdefault",
                    "move_to_end", "appendleft", "extendleft", "sort",
                    "reverse", "__setitem__", "__delitem__"}
MEMOIZERS = {"cache", "lru_cache"}
#: Process-wide state that stays, by dotted name, with the reason.
PROCESS_STATE_ALLOWED = {
    "repro.crypto.ec_backend._g_comb":
        "a constant: G's comb, built on first use and never changed",
    "repro.tee.enclave._measured_code":
        "one digest per entry-point function, a pure function of its code",
    "repro.telemetry.profiler._ACTIVE":
        "the profiler sys.setprofile runs, which is itself process-wide",
    "repro.crypto.ecdsa._POOL":
        "the verifier's helpers on its other cores: threads for OpenSSL "
        "checks and forked workers for equation parts; they keep no verdict "
        "and nothing between calls",
}


def _imported(tree: ast.AST) -> list[tuple[str, int]]:
    """``(bound name, line)`` of every import binding in the file."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound.append((name, node.lineno))
    return bound


def _read_names(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(_WORD.findall(node.value))
    return names


def _redefinitions(body: list[ast.stmt]) -> list[tuple[str, int, int]]:
    """``(name, line, earlier line)`` of every undecorated ``def``/``class``
    that rebinds a name bound by an earlier one in ``body`` or in the body of
    a class nested in it."""
    found, seen = [], {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in seen and not node.decorator_list:
                found.append((node.name, node.lineno, seen[node.name]))
            seen[node.name] = node.lineno
            if isinstance(node, ast.ClassDef):
                found.extend(_redefinitions(node.body))
    return found


def _mining_calls(node: ast.AST, scope: str = "") -> list[tuple[str, int, str]]:
    """``(called name, line, enclosing scope)`` of every mining call."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif isinstance(child, ast.Call):
            name = getattr(child.func, "attr", getattr(child.func, "id", ""))
            if name in MINING_CALLS:
                found.append((name, child.lineno, scope))
        found.extend(_mining_calls(child, inner))
    return found


def _module_containers(tree: ast.Module) -> set[str]:
    """Names a module-level statement binds to a fresh mutable container."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                    ast.SetComp)
        called = getattr(value, "func", None)
        if isinstance(value, displays) or getattr(
                called, "attr", getattr(called, "id", None)) in CONTAINER_CALLS:
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _local_names(function: ast.AST) -> set[str]:
    """Names ``function`` binds locally (so they shadow a module's)."""
    bound = {arg.arg for arg in ast.walk(function.args)
             if isinstance(arg, ast.arg)}
    declared = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
    return bound - declared


def _mutated_containers(tree: ast.Module) -> list[tuple[str, int]]:
    """``(name, line)`` of every mutation of a module-level container from
    inside a function."""
    containers = _module_containers(tree)
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        shared = containers - _local_names(function)
        for node in ast.walk(function):
            if isinstance(node, ast.Subscript) and isinstance(
                    node.ctx, (ast.Store, ast.Del)):
                owner, method = node.value, "__setitem__"
            elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute):
                owner, method = node.func.value, node.func.attr
            else:
                continue
            if (isinstance(owner, ast.Name) and owner.id in shared
                    and method in MUTATING_METHODS):
                found.append((owner.id, node.lineno))
    return found


def _rebound_globals(tree: ast.Module) -> list[tuple[str, int]]:
    """``(name, line)`` of every module global a function rebinds through
    a ``global`` statement."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared = {name for node in ast.walk(function)
                    if isinstance(node, ast.Global) for name in node.names}
        found.extend((node.id, node.lineno) for node in ast.walk(function)
                     if isinstance(node, ast.Name) and node.id in declared
                     and isinstance(node.ctx, (ast.Store, ast.Del)))
    return found


def _memoized(body: list[ast.stmt]) -> list[tuple[str, int]]:
    """``(name, line)`` of every module-level (or class-body) function
    decorated with ``functools.cache``/``lru_cache``."""
    found = []
    for node in body:
        if isinstance(node, ast.ClassDef):
            found.extend(_memoized(node.body))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                called = getattr(decorator, "func", decorator)
                if getattr(called, "attr",
                           getattr(called, "id", None)) in MEMOIZERS:
                    found.append((node.name, node.lineno))
    return found


def _under(path: Path, scope: tuple[str, ...]) -> bool:
    parts = path.parts
    return any(parts[index:index + len(scope)] == scope
               for index in range(len(parts)))


def _process_state(path: Path, tree: ast.Module) -> list[str]:
    """PDS002 findings of one file under ``src/repro``."""
    parts = path.with_suffix("").parts
    module = ".".join(parts[parts.index("repro"):])
    state = []
    for what, sites in (
            ("module-level container mutated by a function",
             _mutated_containers(tree)),
            ("module global rebound by a function", _rebound_globals(tree))):
        first = {}
        for name, line in sorted(sites, key=lambda f: f[1]):
            first.setdefault(name, line)
        state += [(name, line, what) for name, line in first.items()]
    state += [(name, line, "module-level functools cache")
              for name, line in _memoized(tree.body)]
    found, matched = [], set()
    for name, line, what in state:
        if f"{module}.{name}" in PROCESS_STATE_ALLOWED:
            matched.add(f"{module}.{name}")
        else:
            found.append(f"{path}:{line}: PDS002 {what}: {name!r} is "
                         "process-wide state (give it an owner)")
    for entry in PROCESS_STATE_ALLOWED:
        if entry.rpartition(".")[0] == module and entry not in matched:
            found.append(f"{path}:1: PDS002 allowlist entry {entry!r} "
                         "matches nothing")
    return found


def lint_file(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno}: syntax error: {exc.msg}"]

    def silenced(lineno: int) -> bool:
        return "# noqa" in lines[lineno - 1]

    found = []
    read = _read_names(tree)
    for name, lineno in _imported(tree):
        if name not in read and not silenced(lineno):
            found.append(f"{path}:{lineno}: F401 {name!r} imported but unused")
    for name, lineno, earlier in _redefinitions(tree.body):
        if not silenced(lineno):
            found.append(f"{path}:{lineno}: F811 redefinition of {name!r} "
                         f"from line {earlier}")
    if path.parts[-len(MINING_SCOPE) - 1:-1] == MINING_SCOPE:
        for name, lineno, scope in _mining_calls(tree):
            if scope not in MINING_ALLOWED:
                found.append(f"{path}:{lineno}: PDS001 {name}() mines outside "
                             "Marketplace.drive")
    if _under(path, STATE_SCOPE):
        found.extend(_process_state(path, tree))
    if not set(path.parts) & set(LONG_LINES_ALLOWED):
        for lineno, line in enumerate(lines, start=1):
            if len(line) > LINE_LENGTH and not silenced(lineno):
                found.append(f"{path}:{lineno}: E501 line too long "
                             f"({len(line)} > {LINE_LENGTH})")
    return found


def python_files(roots: list[Path]) -> list[Path]:
    """Every ``.py`` file at or under ``roots``, sorted (shared with
    ``tools/option_census.py``)."""
    return sorted(
        file for root in roots
        for file in ([root] if root.is_file() else root.rglob("*.py"))
    )


def main(argv: list[str]) -> int:
    files = python_files([Path(arg) for arg in argv] or [Path(p) for p in DEFAULT_PATHS])
    found = [line for file in files for line in lint_file(file)]
    for line in found:
        print(line)
    print(f"lint_ast: {len(files)} files, {len(found)} finding(s) "
          "(F401 unused imports, F811 redefinitions, E501 line length, "
          "PDS001 one mining seam, PDS002 process-wide state; not a "
          "ruff run)",
          file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
