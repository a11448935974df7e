"""``tools/reach_census.py``: the classifier on a fixture package (a forked
child, a test-only caller, allowlist checks), and the repository's
allowlist held to the closed list of reasons and to DESIGN's table."""

from __future__ import annotations

import fnmatch
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import reach_census  # noqa: E402

MODULE = '''
def in_parent():
    return 1


def in_child():
    return 2


def tests_only():
    return 3


def nobody():
    return 4
'''

# Runs in_child only in a forked worker, which ends with os._exit.
ENTRY = '''
import multiprocessing

from repro import mod

mod.in_parent()
worker = multiprocessing.get_context("fork").Process(target=mod.in_child)
worker.start()
worker.join()
'''

TEST = '''
from repro import mod

mod.tests_only()
'''


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    root = tmp_path_factory.mktemp("census")
    for relative, text in (("src/repro/__init__.py", ""),
                           ("src/repro/mod.py", MODULE),
                           ("entry.py", ENTRY), ("check.py", TEST)):
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return reach_census.run_census(root, (
        reach_census.EntryPoint("examples", ("entry.py",)),
        reach_census.EntryPoint("tests", ("check.py",)),
    ))


def status(census, name: str) -> str:
    (function,) = [f for f in census.functions if f.name == name]
    return function.status


class TestClassifier:
    def test_function_entered_only_in_a_forked_child_is_entered(self, census):
        assert status(census, "in_child") == "entered"
        assert status(census, "in_parent") == "entered"

    def test_function_entered_only_by_a_test_is_tests_only(self, census):
        assert status(census, "tests_only") == "tests-only"
        assert status(census, "nobody") == "unentered"

    def test_unentered_function_off_the_allowlist_fails_check(self, census):
        allowlist = (("repro.mod.tests_only", "oracle", ""),)
        problems = reach_census.check(census, allowlist)
        assert problems == [
            "unentered, not on the allowlist: repro.mod.nobody "
            "(src/repro/mod.py:14)"]
        allowlist += (("repro.mod.nobody", "abstract", ""),)
        assert reach_census.check(census, allowlist) == []

    def test_stale_or_entered_allowlist_entry_fails_check(self, census):
        covered = (("repro.mod.tests_only", "oracle", ""),
                   ("repro.mod.nobody", "abstract", ""))
        problems = reach_census.check(census, covered + (
            ("repro.mod.gone", "abstract", ""),
            ("repro.mod.in_*", "abstract", ""),
            ("repro.mod.nobody", "a parked roadmap item", ""),
        ))
        assert problems == [
            "allowlist entry matches nothing: repro.mod.gone",
            "allowlist entry repro.mod.in_* matches an entered function: "
            "repro.mod.in_parent",
            "allowlist entry repro.mod.in_* matches an entered function: "
            "repro.mod.in_child",
            "allowlist entry repro.mod.nobody: reason 'a parked roadmap "
            "item' is not one of " + ", ".join(reach_census.REASONS),
        ]

    def test_every_entry_point_exited_cleanly(self, census):
        assert set(census.exits.values()) == {0}
        assert census.unmatched == []


class TestRepository:
    def test_every_allowlist_entry_names_a_def_and_a_listed_reason(self):
        keys = [f.key for f in reach_census.collect(REPO)[0]]
        for pattern, reason, note in reach_census.ALLOWLIST:
            assert reason in reach_census.REASONS, pattern
            assert note.strip(), pattern
            assert any(fnmatch.fnmatchcase(key, pattern) for key in keys), \
                pattern

    def test_design_table_is_current(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        assert reach_census.design_table() in design
