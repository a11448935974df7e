"""The auditor's own state root, against the from-scratch oracle.

``ChainAuditor.state_root`` keeps one 32-byte leaf per contract and decides
from a *fingerprint* of the live storage — a digest of its pickle — whether
the leaf still stands.  Nothing tells it what was written, so unlike
``WorldState.state_root`` it must also be right about storage written behind
the VM's back.  The oracle is
:func:`tests.chain.test_journal_root.recompute_state_root`, which encodes
and hashes everything on every call.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import audit as audit_module
from repro.chain.audit import ChainAuditor, _fingerprint
from repro.chain.contract import Contract
from repro.chain.state import WorldState
from repro.chain.vm import VM
from repro.utils.serialization import canonical_json_bytes
from tests.chain.test_journal_root import (
    BLOCK,
    STEP,
    _registry,
    _transaction,
    contracts_among,
    funded_state,
    record_encodings,
    recompute_state_root,
)

#: Values that are equal to ``==`` in groups and encode differently
#: (``1 true 1.0``, ``0.0 -0.0``) or the same (``1`` and ``numpy.int64(1)``).
TWINS = (1, True, 1.0, np.int64(1), np.float64(1.0), np.bool_(True),
         0, False, 0.0, -0.0, np.int64(0), "1", None)


def auditor_of(state: WorldState) -> ChainAuditor:
    """An auditor reads ``chain.state`` and nothing else for its root."""
    return ChainAuditor(SimpleNamespace(state=state))


# ---------------------------------------------------------------------------
# (a) generated sequences of sanctioned and out-of-band writes
# ---------------------------------------------------------------------------


def _poke(state: WorldState, target: int, kind: str, pick: int) -> None:
    """Write one contract's storage the way only tampering does."""
    if not state.contracts:
        return
    addresses = sorted(state.contracts)
    storage = state.contracts[addresses[target % len(addresses)]].storage
    if kind == "nested":  # in place, two levels down
        storage.setdefault("oob", {}).setdefault("deep", []).append(pick)
    elif kind == "reorder":  # same value, another insertion order
        key = next(iter(storage))
        storage[key] = storage.pop(key)
    elif kind == "retype":  # 1 -> True -> 1.0 -> numpy.int64(1) -> ...
        storage["typed"] = TWINS[pick % len(TWINS)]
    else:  # "set": members arrive in hash order, leave sorted
        storage["set"] = {str(pick), "x", "y"}


POKE = st.tuples(st.just("poke"), st.integers(0, 3),
                 st.sampled_from(["nested", "reorder", "retype", "set"]),
                 st.integers(0, 40))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(STEP, POKE), min_size=1, max_size=14))
def test_auditor_root_matches_the_from_scratch_root(steps):
    vm = VM(registry=_registry())
    state = funded_state()
    auditor = auditor_of(state)
    saved = None
    # Start with something to tamper with.
    for step in [("deploy", 0, False)] + steps:
        if step[0] == "poke":
            _poke(state, *step[1:])
            if step[2] == "retype":
                # Seen with one twin, then given its neighbour: for most
                # picks a change of type and of nothing else.
                assert auditor.state_root() == recompute_state_root(state)
                _poke(state, step[1], "retype", step[3] + 1)
        elif step[0] == "snapshot":
            saved = state.snapshot()
        elif step[0] == "restore":
            if saved is not None:
                state.restore(saved)
        else:  # deploys, reverted deploys, writes, reverts, payments
            vm.apply_transaction(state, BLOCK, _transaction(step, state))
        # Asked after *every* step, so each root is built from whatever
        # leaves the previous steps left behind.
        assert auditor.state_root() == recompute_state_root(state)
        assert set(auditor._leaves) == set(state.contracts)


def test_the_pokes_change_what_they_claim_to():
    """The strategy above is only as good as the tampering it produces."""
    vm = VM(registry=_registry())
    state = funded_state()
    vm.apply_transaction(state, BLOCK,
                         _transaction(("deploy", 0, False), state))
    auditor = auditor_of(state)
    sanctioned = state.state_root()
    assert auditor.state_root() == sanctioned

    def moved_by(kind: str, pick: int) -> bool:
        before = auditor.state_root()
        _poke(state, 0, kind, pick)
        assert auditor.state_root() == recompute_state_root(state)
        # None of it went through the VM, so the chain's root saw none.
        assert state.state_root() == sanctioned
        return auditor.state_root() != before

    assert moved_by("nested", 7) and moved_by("nested", 7)
    assert not moved_by("reorder", 0)
    # 1 -> True -> 1.0 -> numpy.int64(1) each encode unlike the one before;
    # a plain 1 after numpy's encodes the same.
    assert [moved_by("retype", pick) for pick in (0, 1, 2, 3, 0)] == [
        True, True, True, True, False]
    assert moved_by("set", 1) and not moved_by("set", 1)


# ---------------------------------------------------------------------------
# (b) what a fingerprint promises, and what it does not
# ---------------------------------------------------------------------------

TREES = st.recursive(
    st.sampled_from(TWINS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=2),
        st.dictionaries(st.sampled_from(["a", "b"]), inner, max_size=2)),
    max_leaves=3,
)


@settings(max_examples=400, deadline=None)
@given(TREES, TREES)
def test_equal_fingerprints_imply_equal_encodings(one, other):
    # Leaves come from thirteen values, so equal trees are common.
    if _fingerprint({"v": one}) == _fingerprint({"v": other}):
        assert canonical_json_bytes(one) == canonical_json_bytes(other)


@pytest.mark.parametrize("group", [(1, True, 1.0), (0, False, 0.0, -0.0)],
                         ids=["one", "zero"])
def test_values_equal_to_python_are_not_equal_to_the_fingerprint(group):
    """Why the design is not ``storage == shadow_copy``: every value of a
    group is ``==`` to every other and each has an encoding of its own."""
    assert all(one == other for one in group for other in group)
    assert len({canonical_json_bytes(value) for value in group}) == len(group)
    assert len({_fingerprint({"v": value}) for value in group}) == len(group)


def _state_with(*storages: dict) -> tuple[WorldState, list[str]]:
    state = WorldState()
    addresses = []
    for index, storage in enumerate(storages):
        address = "0x" + f"{index + 1:02x}" * 20
        state.install_contract(address, Contract())
        state.contracts[address].storage = storage
        addresses.append(address)
    return state, addresses


def test_a_fingerprint_that_moved_for_no_reason_costs_one_encoding(
        monkeypatch):
    state, (moved, still) = _state_with({"a": 1, "b": [2]}, {"c": 3})
    auditor = auditor_of(state)
    root = auditor.state_root()
    encoded = record_encodings(monkeypatch, audit_module)
    state.contracts[moved].storage = {"b": [2], "a": np.int64(1)}
    assert auditor.state_root() == root == recompute_state_root(state)
    assert auditor.state_root() == root  # asked twice, encoded once
    assert contracts_among(encoded, state) == [moved]


def test_storage_pickle_refuses_is_encoded_every_time(monkeypatch):
    class Local(dict):
        """A dict to the encoder; unpicklable, being local to a function."""

    state, (odd, plain) = _state_with({"held": Local(k=1)}, {"c": 3})
    assert _fingerprint(state.contracts[odd].storage) is None
    auditor = auditor_of(state)
    auditor.state_root()
    encoded = record_encodings(monkeypatch, audit_module)
    for _ in range(2):
        assert auditor.state_root() == recompute_state_root(state)
    assert contracts_among(encoded, state) == [odd, odd]
    # So a write to it cannot be missed.
    root = auditor.state_root()
    state.contracts[odd].storage["held"]["k"] = 2
    assert auditor.state_root() == recompute_state_root(state) != root


def test_members_of_contracts_that_are_gone_are_dropped():
    state, (gone, stays) = _state_with({"a": 1}, {"b": 2})
    auditor = auditor_of(state)
    auditor.state_root()
    del state.contracts[gone]
    assert auditor.state_root() == recompute_state_root(state)
    assert list(auditor._leaves) == [stays]
    # Another contract at the old address starts from nothing.
    state.install_contract(gone, Contract())
    assert auditor.state_root() == recompute_state_root(state)


def test_what_an_auditor_keeps_is_its_own(monkeypatch):
    state, addresses = _state_with({"a": 1}, {"b": 2})
    first = auditor_of(state)
    root = first.state_root()
    encoded = record_encodings(monkeypatch, audit_module)
    second = auditor_of(state)
    assert second._leaves == {}
    # The second auditor encodes both contracts itself; the first, asked
    # again on the same state, encodes neither.
    assert second.state_root() == root == first.state_root()
    assert contracts_among(encoded, state) == addresses
    # And neither reads the encodings the state keeps for its own root.
    state._contract_leaves[addresses[0]] = b"poisoned".ljust(32)
    state.contracts[addresses[1]].storage["b"] = 3
    assert state.state_root() != recompute_state_root(state)
    assert first.state_root() == recompute_state_root(state)
