"""``tools/option_census.py``: the counting rules on a fixture, and the
repository held to its committed ceiling and allowlist."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import option_census  # noqa: E402

SOURCE = '''
from dataclasses import dataclass, field


def by_keyword(a, flag=False):
    return a


def by_position(a, depth=3, width=4):
    return a


def by_kwargs(a, size=1, *, shape=2):
    return a


def nobody(a, knob=0):
    return a


def tests_only(a, seam=None):
    return a


@dataclass
class Record:
    name: str
    limit: int = 10
    spare: list = field(default_factory=list)
    derived: int = field(default=0, init=False)

    @classmethod
    def small(cls):
        return cls("small", 1)
'''

PRODUCTION = '''
from repro.mod import Record, by_keyword, by_kwargs, by_position, nobody, tests_only

by_keyword(1, flag=True)
by_position(1, 5)
by_kwargs(1, **{"shape": 3})
nobody(1)
tests_only(1)
'''

TESTS = '''
from repro.mod import Record, tests_only

tests_only(1, seam=object())
Record("x", 5, spare=[1])
'''


@pytest.fixture
def fixture_census(tmp_path):
    for relative, text in (("src/repro/mod.py", SOURCE),
                           ("benchmarks/run.py", PRODUCTION),
                           ("tests/test_mod.py", TESTS)):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    options = option_census.run_census(tmp_path)
    return {option.key: option for option in options}


class TestCountingRules:
    def test_every_defaulted_value_is_found(self, fixture_census):
        assert sorted(fixture_census) == [
            "repro.mod.Record.limit", "repro.mod.Record.spare",
            "repro.mod.by_keyword(flag)", "repro.mod.by_kwargs(shape)",
            "repro.mod.by_kwargs(size)", "repro.mod.by_position(depth)",
            "repro.mod.by_position(width)", "repro.mod.nobody(knob)",
            "repro.mod.tests_only(seam)",
        ]

    def test_keyword_call_site(self, fixture_census):
        assert len(fixture_census["repro.mod.by_keyword(flag)"].production) == 1

    def test_positional_call_site_sets_only_what_it_reaches(self, fixture_census):
        assert len(fixture_census["repro.mod.by_position(depth)"].production) == 1
        assert fixture_census["repro.mod.by_position(width)"].production == []

    def test_double_star_call_site_may_set_anything(self, fixture_census):
        assert len(fixture_census["repro.mod.by_kwargs(size)"].production) == 1
        assert len(fixture_census["repro.mod.by_kwargs(shape)"].production) == 1

    def test_call_without_the_option_sets_nothing(self, fixture_census):
        option = fixture_census["repro.mod.nobody(knob)"]
        assert option.production == [] and option.tests == []

    def test_test_only_setter_is_counted_apart(self, fixture_census):
        option = fixture_census["repro.mod.tests_only(seam)"]
        assert option.production == [] and len(option.tests) == 1

    def test_dataclass_fields_by_position_keyword_and_cls(self, fixture_census):
        limit = fixture_census["repro.mod.Record.limit"]
        spare = fixture_census["repro.mod.Record.spare"]
        # ``cls("small", 1)`` inside the class is a production setter of
        # ``limit``; ``spare`` is set by the test file alone.
        assert len(limit.production) == 1 and len(limit.tests) == 1
        assert spare.production == [] and len(spare.tests) == 1


class TestRepository:
    @pytest.fixture(scope="class")
    def options(self):
        return option_census.run_census(REPO)

    def test_production_unset_count_is_the_committed_ceiling(self, options):
        unset = [option for option in options if not option.production]
        assert len(unset) == option_census.PRODUCTION_UNSET_CEILING

    def test_allowlist_covers_every_unset_value_and_nothing_stale(self, options):
        assert option_census.check(options) == []

    def test_every_allowlist_entry_has_a_reason(self):
        assert all(reason.strip() for _, reason in option_census.ALLOWLIST)


RECEIVERS_SOURCE = '''
from dataclasses import dataclass


class Verifier:
    def verify(self, reading, certificate, now=None):
        return reading

    def check_all(self, readings, clock=0.0):
        return [self.verify(r, None, clock) for r in readings]


class Quiet(Verifier):
    def verify(self, reading, certificate, now=None, strict=False):
        return reading


@dataclass
class Holder:
    verifier: Verifier


def make_holder() -> Holder:
    return Holder(Verifier())
'''

RECEIVERS_PRODUCTION = '''
from cryptography.hazmat.primitives.asymmetric import ec

from repro.mod import Verifier, make_holder


def check_quote(signature, data, algorithm):
    key = ec.derive_private_key(5, ec.SECP256R1()).public_key()
    key.verify(signature, data, algorithm)


def check_reading(reading, certificate):
    verifier = Verifier()
    verifier.verify(reading, certificate)
    make_holder().verifier.check_all([reading], clock=1.0)


def unknown(thing, reading):
    thing.verify(reading, None, 3.0, True)
'''


@pytest.fixture
def receiver_census(tmp_path):
    for relative, text in (("src/repro/mod.py", RECEIVERS_SOURCE),
                           ("benchmarks/run.py", RECEIVERS_PRODUCTION)):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    census = option_census.census_of(tmp_path)
    return census, {option.key: option for option in census.options}


class TestReceivers:
    """A method call reaches the methods of the receiver's class, where the
    AST names that class, and nothing when it names none."""

    def test_a_cryptography_keys_verify_sets_nothing_of_ours(
            self, receiver_census):
        # ``key.verify(signature, data, algorithm)`` on a third-party key
        # passes three positional arguments, as a call that sets ``now``
        # would: by name alone it matched ``Verifier.verify``.
        # Only ``self.verify(r, None, clock)`` in ``check_all`` sets it.
        _, options = receiver_census
        (where,) = options["repro.mod.Verifier.verify(now)"].production
        assert where.endswith("src/repro/mod.py:10")

    def test_self_and_annotated_attributes_resolve(self, receiver_census):
        _, options = receiver_census
        (where,) = options["repro.mod.Verifier.check_all(clock)"].production
        assert where.endswith("benchmarks/run.py:15")

    def test_an_unnamed_receiver_is_ambiguous_and_counts_nothing(
            self, receiver_census):
        # The key (built by a module outside ``src/repro``) and an
        # unannotated parameter: listed, neither sets ``strict``.
        census, options = receiver_census
        assert options["repro.mod.Quiet.verify(strict)"].production == []
        assert [(where.rsplit("/", 1)[-1], name)
                for where, name in census.ambiguous] == [
            ("run.py:9", "verify"), ("run.py:19", "verify")]
