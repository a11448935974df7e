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

One structural rule of this repository's own rides along:

* **PDS001** — under ``src/repro/core/`` a call that mines a block
  (``mine_block``, ``_mine``, ``call_and_mine``, ``deploy_and_mine``) may
  appear only in ``Marketplace.drive`` (the loop that mines a block for
  every seam a session or onboarding call awaits, DESIGN §8) and in
  ``Marketplace.__init__`` (the three genesis deploys).

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
          "PDS001 one mining "
          "seam; not a ruff run)",
          file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
