"""Journaled revert and the incremental state root, against their oracles.

Two pieces of the chain cost O(what a transaction touched) instead of
O(state): the VM reverts through a per-transaction
:class:`~repro.chain.state.WriteJournal`, and ``WorldState.state_root``
keeps one 32-byte leaf per contract under a root hash.  Their oracles:

* :func:`apply_with_snapshot` — the state transition of commit ``5d597fa``:
  deep-copy the whole state before execution, put the copy back on revert;
* :func:`recompute_state_root` — the same two-level commitment computed
  from nothing kept: every member encoded and every leaf hashed on every
  call, with no code from ``state.py`` or ``audit.py`` (the auditor's own
  root is held against it in ``tests/chain/test_audit_root.py``).

Generated sequences of transactions run on two states, one per
implementation, and must agree on state, receipts and root after every step.
"""

from __future__ import annotations

import copy
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import gas as gas_schedule
from repro.chain.contract import Contract, ContractRegistry
from repro.chain.state import WorldState, WriteJournal
from repro.chain.transaction import CREATE, Receipt, Transaction
from repro.chain.vm import VM, BlockContext, ExecutionContext, GasMeter
from repro.errors import ContractError, OutOfGasError
from repro.utils.serialization import canonical_json_bytes
from tests.chain.test_known_answers import aggregate_session, small_market
from tests.chain.test_block_verify import _receipt_key

SENDERS = ("0x" + "a1" * 20, "0x" + "b2" * 20)
VALIDATOR = "0x" + "c3" * 20
BLOCK = BlockContext(number=1, timestamp=1.0, validator=VALIDATOR)


class Scratch(Contract):
    """Writes, nested creates, deletes and read-modify-writes on demand."""

    def setup(self, fail: bool = False) -> None:
        self.swrite(0, "batches")
        self.swrite({"leaf": [1, 2]}, "tree", "seed")
        self.require(not fail, "stillborn")

    def batch(self, ops: list, fail: bool = False, burn: bool = False) -> int:
        for kind, path, value in ops:
            if kind == "put":
                self.swrite(value, *path)
            elif kind == "drop":
                self.sdelete(*path)
            else:  # "grow": mutate what sread returned, then write it back
                held = self.sread(*path, default=[])
                if isinstance(held, list):
                    held.append(value)
                elif isinstance(held, dict):
                    held["grown"] = value
                else:
                    held = [held, value]
                self.swrite(held, *path)
        self.swrite(self.sread("batches") + 1, "batches")
        if burn:
            self.ctx.charge(5 * 10**9)
        self.require(not fail, "boom")
        return len(ops)

    def scribble(self) -> dict:
        """A view that mutates what it read, in place, at two depths."""
        tree = self.sread("tree")
        tree["seed"]["leaf"].append("scribbled")
        tree["extra"] = True
        return tree


class PingPong(Contract):
    """A calls B calls A ...: every frame checks it got its context back."""

    def ping(self, peer: str, hops: int, fail: bool = False) -> list:
        ctx = self.ctx
        self.swrite(ctx.sender, "deep", "hop", str(hops))
        below = []
        if hops:
            below = ctx.call(peer, "ping", peer=self.address, hops=hops - 1,
                             fail=fail)
        self.require(not fail, "boom")
        # The frame below ran on this same instance in between.
        self.require(self.ctx is ctx, "context was not restored")
        return [[self.address, ctx.sender, hops]] + below


def _registry() -> ContractRegistry:
    registry = ContractRegistry()
    registry.register("scratch", Scratch)
    registry.register("pingpong", PingPong)
    return registry


def recompute_state_root(state: WorldState) -> bytes:
    """The two-level state root from scratch, sharing no code with
    ``state.py`` or ``audit.py``: every member encoded, every leaf hashed."""
    def keccak(data: bytes) -> bytes:
        return hashlib.sha3_256(data).digest()

    nodes = [
        keccak(canonical_json_bytes(
            {k: v for k, v in sorted(state.balances.items()) if v})),
        keccak(canonical_json_bytes(dict(sorted(state.nonces.items())))),
    ]
    for address, contract in sorted(state.contracts.items()):
        # The member `"address":{...storage...}`, key and value on their own.
        nodes.append(keccak(canonical_json_bytes(address) + b":"
                            + canonical_json_bytes(contract.storage)))
    return keccak(b"".join(nodes))


def apply_with_snapshot(vm: VM, state: WorldState, block: BlockContext,
                        tx: Transaction) -> Receipt:
    """``VM.apply_transaction`` as of 5d597fa (``isolation="snapshot"``)."""
    upfront = tx.gas_limit * tx.gas_price
    state.debit(tx.sender, upfront)
    state.bump_nonce(tx.sender)
    meter = GasMeter(tx.gas_limit)
    logs: list = []
    snapshot = state.snapshot()
    receipt = Receipt(tx_hash=tx.tx_hash, status=True, gas_used=0)
    try:
        meter.charge(tx.intrinsic_gas)
        if tx.to is CREATE:
            receipt.contract_address = vm._deploy(state, block, tx, meter,
                                                  logs)
        else:
            receipt.return_value = vm._call_top(state, block, tx, meter,
                                                logs)
    except (ContractError, OutOfGasError) as exc:
        state.restore(snapshot)
        receipt.status = False
        receipt.error = str(exc)
        receipt.contract_address = None
        if isinstance(exc, OutOfGasError):
            meter.used = meter.limit
    receipt.gas_used = min(meter.used, meter.limit)
    receipt.logs = logs if receipt.status else []
    state.credit(tx.sender, (tx.gas_limit - receipt.gas_used) * tx.gas_price)
    state.credit(block.validator, receipt.gas_used * tx.gas_price)
    receipt.block_number = block.number
    return receipt


def image(state: WorldState) -> dict:
    return {
        "balances": dict(state.balances),
        "nonces": dict(state.nonces),
        "storage": {address: copy.deepcopy(contract.storage)
                    for address, contract in state.contracts.items()},
    }


def funded_state() -> WorldState:
    state = WorldState()
    for sender in SENDERS:
        state.credit(sender, 10**15)
    return state


# ---------------------------------------------------------------------------
# (a) generated sequences: journal ≡ snapshot, incremental ≡ from scratch
# ---------------------------------------------------------------------------

KEYS = st.sampled_from(["a", "b", "tree", "seed", "leaf", "batches"])
PATHS = st.lists(KEYS, min_size=1, max_size=3)
VALUES = st.recursive(
    st.one_of(st.integers(-5, 5), st.sampled_from(["", "x", "}{", '"']),
              st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=2),
                            st.dictionaries(KEYS, inner, max_size=2)),
    max_leaves=4,
)
OPS = st.lists(
    st.tuples(st.sampled_from(["put", "put", "drop", "grow"]), PATHS, VALUES),
    max_size=4,
)
STEP = st.one_of(
    st.tuples(st.just("deploy"), st.integers(0, 1), st.booleans()),
    st.tuples(st.just("batch"), st.integers(0, 1), st.integers(0, 3), OPS,
              st.sampled_from(["ok", "ok", "fail", "burn"]),
              st.integers(0, 3)),
    st.tuples(st.just("pay"), st.integers(0, 1), st.integers(0, 3),
              st.integers(0, 10**6)),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore")),
)
STEPS = st.lists(STEP, min_size=1, max_size=12)


def _transaction(step: tuple, state: WorldState) -> Transaction:
    sender = SENDERS[step[1]]
    nonce = state.nonce_of(sender)
    deployed = sorted(state.contracts)
    if step[0] == "deploy" or (step[0] == "batch" and not deployed):
        fail = step[2] is True
        return Transaction(sender=sender, nonce=nonce, to=CREATE, value=0,
                           payload={"contract": "scratch",
                                    "args": {"fail": fail}})
    if step[0] == "batch":
        _, _, target, ops, outcome, value = step
        return Transaction(
            sender=sender, nonce=nonce, to=deployed[target % len(deployed)],
            value=value,
            payload={"method": "batch", "args": {
                "ops": [list(op) for op in ops],
                "fail": outcome == "fail", "burn": outcome == "burn"}},
        )
    _, _, target, value = step
    recipients = deployed + [SENDERS[1 - step[1]]]
    return Transaction(sender=sender, nonce=nonce,
                       to=recipients[target % len(recipients)], value=value)


@settings(max_examples=120, deadline=None)
@given(STEPS)
def test_journal_and_incremental_root_match_their_oracles(steps):
    vm = VM(registry=_registry())
    live, oracle = funded_state(), funded_state()
    saved = None
    for step in steps:
        if step[0] == "snapshot":
            saved = (live.snapshot(), oracle.snapshot())
        elif step[0] == "restore":
            if saved is not None:
                live.restore(saved[0])
                oracle.restore(saved[1])
        else:
            tx = _transaction(step, live)
            payload = copy.deepcopy(tx.payload)
            journaled = vm.apply_transaction(live, BLOCK, tx)
            snapshotted = apply_with_snapshot(vm, oracle, BLOCK, tx)
            assert tx.payload == payload
            assert _receipt_key(journaled) == _receipt_key(snapshotted)
            assert live.tx_journal is None
        assert image(live) == image(oracle)
        # Asked after *every* step, so each root is spliced from whatever
        # the previous steps left cached.
        root = live.state_root()
        assert root == recompute_state_root(live)
        assert root == recompute_state_root(oracle)
        assert root == oracle.state_root()


def test_nested_write_into_a_slot_put_from_the_payload_leaves_it_alone():
    """What Hypothesis found: ``put seed {}`` stored the payload's own dict,
    and ``grow seed.a`` in the same batch then wrote into it — storage
    changing a mined transaction, and two states sharing one dict."""
    vm, state, address = _deployed_scratch()
    ops = [["put", ["seed"], {}], ["grow", ["seed", "a"], 1]]
    tx = Transaction(sender=SENDERS[0], nonce=state.nonce_of(SENDERS[0]),
                     to=address, value=0,
                     payload={"method": "batch", "args": {
                         "ops": ops, "fail": False, "burn": False}})
    payload = copy.deepcopy(tx.payload)
    assert vm.apply_transaction(state, BLOCK, tx).status
    assert state.contracts[address].storage["seed"] == {"a": [1]}
    assert tx.payload == payload
    # Nor is storage an alias of the payload the other way round.
    tx.payload["args"]["ops"][0][2]["poked"] = True
    assert state.contracts[address].storage["seed"] == {"a": [1]}
    assert state.state_root() == recompute_state_root(state)


def test_the_generated_sequences_reach_every_kind_of_step():
    """The strategy above is only as good as the outcomes it produces."""
    vm = VM(registry=_registry())
    state = funded_state()

    def run(step):
        return vm.apply_transaction(state, BLOCK, _transaction(step, state))

    assert run(("deploy", 0, True)).error == "stillborn"
    assert not state.contracts
    assert run(("deploy", 0, False)).status
    nested = [("put", ["a", "b", "leaf"], 1)]
    assert run(("batch", 1, 0, nested, "ok", 2)).return_value == 1
    before = image(state)
    root = state.state_root()
    assert run(("batch", 0, 0, nested + [("drop", ["tree"], None)],
                "fail", 0)).error == "boom"
    burned = run(("batch", 0, 0, nested, "burn", 0))
    assert burned.gas_used == gas_schedule.DEFAULT_TX_GAS_LIMIT
    crossing = run(("batch", 0, 0, [("put", ["batches", "x"], 1)], "ok", 0))
    assert "crosses a non-dict slot" in crossing.error
    assert image(state)["storage"] == before["storage"]
    # Only fees moved, so the root moved; put the accounts back and the
    # three reverts have left no trace.
    assert state.state_root() != root
    state.balances, state.nonces = before["balances"], before["nonces"]
    assert state.state_root() == root == recompute_state_root(state)


def _deployed_scratch():
    vm = VM(registry=_registry())
    state = funded_state()
    receipt = vm.apply_transaction(
        state, BLOCK, _transaction(("deploy", 0, False), state))
    return vm, state, receipt.contract_address


@pytest.mark.parametrize("write", [
    lambda ctx, c: ctx.storage_write(c, ("batches",), 7),
    lambda ctx, c: ctx.storage_write(c, ("new", "deep", "leaf"), 1),
    lambda ctx, c: ctx.storage_delete(c, ("tree",)),
], ids=["slot", "nested-create", "delete"])
def test_root_asked_mid_transaction_does_not_survive_the_revert(write):
    """Nothing asks for a root while a transaction runs, but a root that
    was asked for must not outlive the writes it encoded."""
    vm, state, address = _deployed_scratch()
    root = state.state_root()
    journal = WriteJournal(state)
    state.attach_journal(journal)
    write(ExecutionContext(
        vm=vm, state=state, block=BLOCK, origin=SENDERS[0],
        sender=SENDERS[0], value=0, gas_meter=GasMeter(10**6), logs=[],
        static=False,
    ), state.contracts[address])
    assert state.state_root() == recompute_state_root(state) != root
    journal.revert()
    state.attach_journal(None)
    assert state.state_root() == root == recompute_state_root(state)


# ---------------------------------------------------------------------------
# (c) views: side-effect-free without a snapshot
# ---------------------------------------------------------------------------


def test_view_mutating_what_it_read_changes_nothing():
    vm, state, address = _deployed_scratch()
    before = image(state)
    root = state.state_root()
    seen = vm.static_view(state, BLOCK, SENDERS[0], address, "scribble")
    assert seen["extra"] is True
    assert seen["seed"]["leaf"] == [1, 2, "scribbled"]
    assert image(state) == before
    assert state.state_root() == root == recompute_state_root(state)
    # And what the view returned is not an alias of storage either.
    seen["seed"]["leaf"].clear()
    assert recompute_state_root(state) == root


def test_view_cannot_write():
    vm, state, address = _deployed_scratch()
    root = state.state_root()
    with pytest.raises(ContractError, match="static call"):
        vm.static_view(state, BLOCK, SENDERS[0], address, "batch",
                       ops=[["put", ["a"], 1]])
    assert state.state_root() == root == recompute_state_root(state)


def test_view_inside_an_active_journal_leaves_it_attached():
    vm, state, address = _deployed_scratch()
    journal = WriteJournal(state)
    state.attach_journal(journal)
    try:
        state.credit(SENDERS[1], 5)
        records = list(journal.records)
        vm.static_view(state, BLOCK, SENDERS[0], address, "scribble")
        assert state.tx_journal is journal
        assert journal.records == records
    finally:
        state.attach_journal(None)


# ---------------------------------------------------------------------------
# (d) re-entrant calls: one context attribute per contract, saved per frame
# ---------------------------------------------------------------------------


def _deployed_pingpongs():
    vm = VM(registry=_registry())
    state = funded_state()
    addresses = []
    for sender in SENDERS:
        receipt = vm.apply_transaction(state, BLOCK, Transaction(
            sender=sender, nonce=0, to=CREATE, value=0,
            payload={"contract": "pingpong", "args": {}}))
        addresses.append(receipt.contract_address)
    return vm, state, addresses


def test_each_frame_of_a_reentrant_call_sees_its_own_context():
    vm, state, (a, b) = _deployed_pingpongs()
    receipt = vm.apply_transaction(state, BLOCK, Transaction(
        sender=SENDERS[0], nonce=1, to=a, value=0,
        payload={"method": "ping", "args": {"peer": b, "hops": 2}}))
    assert receipt.error is None
    assert receipt.return_value == [[a, SENDERS[0], 2], [b, a, 1], [a, b, 0]]
    assert state.contracts[a].storage["deep"]["hop"] == {
        "2": SENDERS[0], "0": b}
    assert state.contracts[a]._ctx is None is state.contracts[b]._ctx
    assert state.tx_journal is None


def test_inner_revert_leaves_outer_context_and_journal_intact():
    vm, state, (a, b) = _deployed_pingpongs()
    root = state.state_root()
    meter = GasMeter(10**6)
    # An outer frame is executing on A: its context and the transaction's
    # journal must both survive B calling back into A and A reverting.
    outer = ExecutionContext(
        vm=vm, state=state, block=BLOCK, origin=SENDERS[0],
        sender=SENDERS[0], value=0, gas_meter=meter, logs=[], static=False)
    outer._self_address = a
    state.contracts[a]._ctx = outer
    journal = WriteJournal(state)
    state.attach_journal(journal)
    try:
        with pytest.raises(ContractError, match="boom"):
            outer.call(b, "ping", peer=a, hops=1, fail=True)
        assert state.contracts[a]._ctx is outer
        assert state.contracts[b]._ctx is None
        assert state.tx_journal is journal
        assert len(journal.records) == 2  # one nested create per contract
        assert state.state_root() == recompute_state_root(state) != root
        journal.revert()
    finally:
        state.attach_journal(None)
        state.contracts[a]._ctx = None
    assert "deep" not in state.contracts[a].storage
    assert "deep" not in state.contracts[b].storage
    assert state.state_root() == root == recompute_state_root(state)


# ---------------------------------------------------------------------------
# (e) the cost at height: nothing proportional to the state
# ---------------------------------------------------------------------------


def record_encodings(monkeypatch, module) -> list:
    """Every document ``module`` canonically encodes from here on."""
    seen: list = []
    real_encode = module.canonical_json_bytes

    def recording_encode(value):
        seen.append(value)
        return real_encode(value)

    monkeypatch.setattr(module, "canonical_json_bytes", recording_encode)
    return seen


def contracts_among(documents: list, state: WorldState) -> list[str]:
    """A contract is encoded as the one-key document {address: storage}."""
    return [next(iter(doc)) for doc in documents
            if len(doc) == 1 and next(iter(doc)) in state.contracts]


def test_a_session_on_a_tall_chain_touches_only_what_it_wrote(monkeypatch):
    from repro.chain import audit as audit_module
    from repro.chain import state as state_module

    market, consumer = small_market(8, providers=4, rows=25, executors=2)
    chain = market.chain
    index = 0
    while chain.height < 60:
        aggregate_session(market, consumer, f"tall-{index}")
        index += 1
    contracts_before = set(chain.state.contracts)
    height_before = chain.height

    snapshots = []
    real_snapshot = WorldState.snapshot

    def counting_snapshot(self):
        snapshots.append(self)
        return real_snapshot(self)

    monkeypatch.setattr(WorldState, "snapshot", counting_snapshot)
    sealed = record_encodings(monkeypatch, state_module)
    audited = record_encodings(monkeypatch, audit_module)
    # mine_block returns after the auditor: where each block's share ends.
    marks = [0]
    mine_block = chain.mine_block

    def mine_and_mark(*args, **kwargs):
        block = mine_block(*args, **kwargs)
        marks.append(len(audited))
        return block

    monkeypatch.setattr(chain, "mine_block", mine_and_mark)
    aggregate_session(market, consumer, f"tall-{index}")

    blocks = chain.blocks[height_before + 1:]
    assert len(blocks) == len(marks) - 1 >= 4
    touched = set()
    audited_contracts = set()
    for block, begin, end in zip(blocks, marks, marks[1:]):
        wrote = set()
        for tx in block.transactions:
            receipt = chain.receipt_for(tx.tx_hash)
            wrote.update(filter(None, [tx.to, receipt.contract_address]))
            wrote.update(log.address for log in receipt.logs)
        # The auditor's own root: the contracts this block wrote, each
        # once, then balances and nonces — and nothing else.
        *contracts, balances, nonces = audited[begin:end]
        addresses = contracts_among(contracts, chain.state)
        assert len(addresses) == len(contracts)
        assert addresses == sorted(set(addresses)) and set(addresses) <= wrote
        assert len(balances) > 1 and nonces is chain.state.nonces
        touched |= wrote
        audited_contracts.update(addresses)
    encoded = contracts_among(sealed, chain.state)
    assert len(contracts_before) >= 12
    assert snapshots == []
    assert set(encoded) <= touched & set(chain.state.contracts)
    # At most once per block that wrote it — never once per root per contract.
    assert len(encoded) <= len(blocks) * len(set(encoded))
    assert len(set(encoded)) < len(contracts_before) / 4
    # What the values say was written is what the write hooks say.
    assert audited_contracts == set(encoded)
    assert chain.auditor.summary()["violation_count"] == 0
    assert chain.state.state_root() == recompute_state_root(chain.state)
    assert chain.auditor.state_root() == chain.state.state_root()


@pytest.mark.parametrize("padding", [0, 40_000], ids=["small", "large"])
def test_a_root_hashes_what_was_written_plus_32_bytes_a_contract(
        monkeypatch, padding):
    """What Keccak is fed for a root does not depend on how much storage
    the contracts the block did not write hold."""
    from repro.chain import state as state_module

    vm = VM(registry=_registry())
    state = funded_state()
    for index in range(60):
        address = "0x" + f"{index:02x}" * 20
        state.install_contract(address, Scratch())
        state.contracts[address].storage = {"pad": "x" * padding, "n": index}
    state.state_root()  # every leaf is kept from here on
    written = state.contracts["0x" + "07" * 20]
    ExecutionContext(
        vm=vm, state=state, block=BLOCK, origin=SENDERS[0],
        sender=SENDERS[0], value=0, gas_meter=GasMeter(10**6), logs=[],
        static=False,
    ).storage_write(written, ("n",), "written")

    fed = []
    real_keccak = state_module.keccak256

    def recording_keccak(data):
        fed.append(len(data))
        return real_keccak(data)

    monkeypatch.setattr(state_module, "keccak256", recording_keccak)
    assert state.state_root() == recompute_state_root(state)
    member = canonical_json_bytes({written.address: written.storage})[1:-1]
    assert len(member) > padding
    assert sorted(fed) == sorted([
        len(canonical_json_bytes(state.balances)),
        len(canonical_json_bytes(state.nonces)),
        len(member),          # the one contract the "block" wrote
        32 * (2 + 60),        # balances, nonces and a leaf per contract
    ])
    del fed[:]
    state.state_root()        # nothing written since: no leaf is re-hashed
    assert len(fed) == 3 and max(fed) == 32 * 62
