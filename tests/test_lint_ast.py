"""``tools/lint_ast.py``'s PDS002: process-wide state under ``src/repro``
is reported unless its allowlist names it, and the repository is clean."""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import lint_ast  # noqa: E402

#: The shape of the verdict LRU ``ecdsa`` once kept for the whole process.
VERDICT_LRU = '''
from collections import OrderedDict
from functools import lru_cache

_VERDICTS: OrderedDict = OrderedDict()
_LIMITS = {"max": 8}


def verify(key, message):
    cached = _VERDICTS.get((key, message))
    if cached is not None:
        _VERDICTS.move_to_end((key, message))
        return cached
    _VERDICTS[(key, message)] = True
    return True


def local_shadow():
    _LIMITS = {}
    _LIMITS["max"] = 1
    return _LIMITS["max"] + len(_VERDICTS)


@lru_cache(maxsize=None)
def measure(name):
    return name
'''


def _lint(tmp_path: Path, relative: str, source: str) -> list[str]:
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return [line.split(": ", 1)[1] for line in lint_ast.lint_file(path)]


def test_a_verdict_lru_shaped_module_is_reported(tmp_path):
    found = _lint(tmp_path, "src/repro/crypto/verdicts.py", VERDICT_LRU)
    assert found == [
        "PDS002 module-level container mutated by a function: "
        "'_VERDICTS' is process-wide state (give it an owner)",
        "PDS002 module-level functools cache: 'measure' is process-wide "
        "state (give it an owner)",
    ]


def test_only_src_repro_is_in_scope(tmp_path):
    assert _lint(tmp_path, "tests/crypto/verdicts.py", VERDICT_LRU) == []


def test_an_allowlisted_cache_passes_and_a_stale_entry_is_reported(
        tmp_path, monkeypatch):
    monkeypatch.setattr(lint_ast, "PROCESS_STATE_ALLOWED", {
        "repro.crypto.verdicts.measure": "a reason",
        "repro.crypto.verdicts.gone": "what it once was",
    })
    found = _lint(tmp_path, "src/repro/crypto/verdicts.py", VERDICT_LRU)
    assert [line.split(" ", 1)[0] for line in found] == ["PDS002"] * 2
    assert "'_VERDICTS'" in found[0]
    assert found[1] == ("PDS002 allowlist entry 'repro.crypto.verdicts.gone'"
                        " matches nothing")


#: Process-wide state held by rebinding a module global, the shape a lazily
#: started worker pool takes.
GLOBAL_REBIND = '''
_POOL = None
_HITS = 0


def pool():
    global _POOL
    if _POOL is None:
        _POOL = object()
    return _POOL


def hit():
    global _HITS
    _HITS += 1


def reads_only():
    global _POOL
    return _POOL
'''


def test_a_global_rebind_is_reported_unless_allowlisted(tmp_path,
                                                        monkeypatch):
    found = _lint(tmp_path, "src/repro/crypto/pool.py", GLOBAL_REBIND)
    assert found == [
        "PDS002 module global rebound by a function: '_POOL' is "
        "process-wide state (give it an owner)",
        "PDS002 module global rebound by a function: '_HITS' is "
        "process-wide state (give it an owner)",
    ]
    monkeypatch.setattr(lint_ast, "PROCESS_STATE_ALLOWED", {
        "repro.crypto.pool._POOL": "a reason"})
    assert _lint(tmp_path, "src/repro/crypto/pool.py", GLOBAL_REBIND) == [
        "PDS002 module global rebound by a function: '_HITS' is "
        "process-wide state (give it an owner)",
    ]


def test_the_repository_is_clean():
    files = lint_ast.python_files([REPO / "src", REPO / "tools"])
    assert [line for file in files for line in lint_ast.lint_file(file)] == []
