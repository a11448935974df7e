"""World state: balances, nonces, and deployed contracts.

Every transaction runs under a :class:`WriteJournal` — a per-transaction
undo log the VM attaches to the state — so rolling back a reverted call
costs O(what it wrote), not O(state).  That rollback is the property the
governance layer's audit guarantees rest on.  Contract *instances* survive
a rollback (they are identity-stable); only their ``storage`` dicts are
restored.

:meth:`WorldState.snapshot` / :meth:`WorldState.restore` deep-copy the whole
state.  They have no production caller: the tests use them as the oracle
the journal's revert is compared against.

:meth:`WorldState.state_root` is a two-level commitment, one 32-byte leaf
per contract under one root hash, and incremental: a leaf is kept until its
contract is written *through the VM* (or the journal, or ``restore``).
Writing ``contract.storage`` any other way is tampering: the root will not
see it, and the chain auditor — which looks at every contract's storage
itself every block — flags the block.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.chain.contract import Contract
from repro.crypto.hashing import keccak256
from repro.errors import InsufficientBalanceError, UnknownContractError
from repro.utils.serialization import canonical_json_bytes

#: Sentinel for "slot absent" in journal pre-images.
_ABSENT = object()


class WriteJournal:
    """Undo log for one transaction's state mutations.

    Each mutation appends a record *before* it is applied; :meth:`revert`
    replays the records in reverse.  Storage writes that create intermediate
    dicts record the topmost *newly created* node so revert removes it
    wholesale — leftover empty dicts would diverge the state root from a
    never-executed baseline.
    """

    __slots__ = ("state", "records")

    def __init__(self, state: "WorldState") -> None:
        self.state = state
        self.records: list[tuple] = []

    # -- recording hooks (called by WorldState/ExecutionContext) ----------

    def record_balance(self, address: str) -> None:
        self.records.append(
            ("balance", address, self.state.balances.get(address, _ABSENT))
        )

    def record_nonce(self, address: str) -> None:
        self.records.append(
            ("nonce", address, self.state.nonces.get(address, _ABSENT))
        )

    def record_contract(self, address: str) -> None:
        self.records.append(("contract", address))

    def record_slot(self, contract: Contract, path: tuple,
                    parent: dict, created: Optional[tuple]) -> None:
        """Record one storage-slot write.

        ``parent`` is the dict holding the leaf key; ``created`` is the path
        of the topmost intermediate dict this write created (None when the
        whole path already existed).
        """
        if created is not None:
            # Reverting the created node removes the leaf with it.
            self.records.append(("mknode", contract, created))
            return
        old = parent.get(path[-1], _ABSENT)
        if old is not _ABSENT and isinstance(old, (dict, list)):
            old = copy.deepcopy(old)
        self.records.append(("slot", contract, path, old))

    # -- revert ------------------------------------------------------------

    def revert(self) -> None:
        state = self.state
        for record in reversed(self.records):
            kind = record[0]
            if kind == "balance":
                _, address, old = record
                if old is _ABSENT:
                    state.balances.pop(address, None)
                else:
                    state.balances[address] = old
            elif kind == "nonce":
                _, address, old = record
                if old is _ABSENT:
                    state.nonces.pop(address, None)
                else:
                    state.nonces[address] = old
            elif kind == "slot":
                _, contract, path, old = record
                state.storage_changed(contract.address)
                node: Any = contract.storage
                for key in path[:-1]:
                    if not isinstance(node, dict) or key not in node:
                        node = None
                        break
                    node = node[key]
                if isinstance(node, dict):
                    if old is _ABSENT:
                        node.pop(path[-1], None)
                    else:
                        node[path[-1]] = old
            elif kind == "mknode":
                _, contract, created = record
                state.storage_changed(contract.address)
                node = contract.storage
                for key in created[:-1]:
                    if not isinstance(node, dict) or key not in node:
                        node = None
                        break
                    node = node[key]
                if isinstance(node, dict):
                    node.pop(created[-1], None)
            elif kind == "contract":
                state.contracts.pop(record[1], None)
        self.records.clear()


@dataclass
class StateSnapshot:
    """An opaque deep copy of the mutable world state."""

    balances: dict[str, int]
    nonces: dict[str, int]
    contract_storages: dict[str, dict]


@dataclass
class WorldState:
    """Mutable ledger state shared by all blocks of one chain."""

    balances: dict[str, int] = field(default_factory=dict)
    nonces: dict[str, int] = field(default_factory=dict)
    contracts: dict[str, Contract] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._journal: Optional[WriteJournal] = None
        # address -> the contract's leaf of the state root (see state_root),
        # valid until storage_changed(address).
        self._contract_leaves: dict[str, bytes] = {}

    # -- transaction context ---------------------------------------------------

    @property
    def tx_journal(self) -> Optional[WriteJournal]:
        """The write journal of the executing transaction (or None)."""
        return self._journal

    def attach_journal(self, journal: Optional[WriteJournal]) -> None:
        """Attach a write journal to the executing transaction (None detaches)."""
        self._journal = journal

    # -- balances -------------------------------------------------------------

    def balance_of(self, address: str) -> int:
        """Current base-currency balance of ``address`` (0 if untouched)."""
        return self.balances.get(address, 0)

    def credit(self, address: str, amount: int) -> None:
        """Add ``amount`` to an account balance."""
        if amount < 0:
            raise ValueError("credit amount must be non-negative")
        journal = self._journal
        if journal is not None:
            journal.record_balance(address)
        self.balances[address] = self.balances.get(address, 0) + amount

    def debit(self, address: str, amount: int) -> None:
        """Remove ``amount`` from an account, raising if it overdraws."""
        if amount < 0:
            raise ValueError("debit amount must be non-negative")
        balance = self.balances.get(address, 0)
        if balance < amount:
            raise InsufficientBalanceError(
                f"{address} holds {balance}, cannot pay {amount}"
            )
        journal = self._journal
        if journal is not None:
            journal.record_balance(address)
        self.balances[address] = balance - amount

    def transfer(self, sender: str, recipient: str, amount: int) -> None:
        """Move base currency between two accounts atomically."""
        self.debit(sender, amount)
        self.credit(recipient, amount)

    # -- nonces ---------------------------------------------------------------

    def nonce_of(self, address: str) -> int:
        """The next expected transaction nonce for ``address``."""
        return self.nonces.get(address, 0)

    def bump_nonce(self, address: str) -> None:
        """Advance the account's nonce after accepting a transaction."""
        journal = self._journal
        if journal is not None:
            journal.record_nonce(address)
        self.nonces[address] = self.nonces.get(address, 0) + 1

    # -- contracts ------------------------------------------------------------

    def contract_at(self, address: str) -> Contract:
        """The contract deployed at ``address`` or raise UnknownContractError."""
        contract = self.contracts.get(address)
        if contract is None:
            raise UnknownContractError(f"no contract at {address}")
        return contract

    def has_contract(self, address: str) -> bool:
        """True when a contract is deployed at ``address``."""
        return address in self.contracts

    def install_contract(self, address: str, contract: Contract) -> None:
        """Bind a freshly constructed contract instance to ``address``."""
        if address in self.contracts:
            raise UnknownContractError(f"address {address} already occupied")
        journal = self._journal
        if journal is not None:
            journal.record_contract(address)
        contract.address = address
        self.contracts[address] = contract
        self.storage_changed(address)

    def storage_changed(self, address: str) -> None:
        """Forget the cached state-root leaf of one contract.

        Called by every sanctioned storage mutation: the VM's
        ``storage_write``/``storage_delete``, a journal revert, a contract
        install, and :meth:`restore`.
        """
        self._contract_leaves.pop(address, None)

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> StateSnapshot:
        """Deep-copy the whole mutable state (O(state))."""
        return StateSnapshot(
            balances=dict(self.balances),
            nonces=dict(self.nonces),
            contract_storages={
                address: copy.deepcopy(contract.storage)
                for address, contract in self.contracts.items()
            },
        )

    def restore(self, snap: StateSnapshot) -> None:
        """Roll back to ``snap``; contracts deployed since are removed."""
        self.balances = dict(snap.balances)
        self.nonces = dict(snap.nonces)
        for address in list(self.contracts):
            if address not in snap.contract_storages:
                del self.contracts[address]
        for address, storage in snap.contract_storages.items():
            self.contracts[address].storage = copy.deepcopy(storage)
        self._contract_leaves.clear()

    # -- commitments ------------------------------------------------------------

    def state_root(self) -> bytes:
        """A digest committing to the full state (used in block headers).

        ``keccak(keccak(balances) + keccak(nonces) + leaf(a1) + ... +
        leaf(aC))``: the canonical JSON of the non-zero balances and of the
        nonces, then ``leaf(a) = keccak(b'"a":{...storage...}')`` per contract
        in sorted-address order (DESIGN §16).  Balances and nonces are
        encoded on every call, a contract only when it was written since the
        last one: a root hashes those encodings plus 32 bytes per contract.
        """
        leaves = self._contract_leaves
        digests = [
            keccak256(canonical_json_bytes(
                {k: v for k, v in self.balances.items() if v})),
            keccak256(canonical_json_bytes(self.nonces)),
        ]
        for address in sorted(self.contracts):
            leaf = leaves.get(address)
            if leaf is None:
                # The one-key document without its braces: `"address":{...}`.
                leaf = leaves[address] = keccak256(canonical_json_bytes(
                    {address: self.contracts[address].storage})[1:-1])
            digests.append(leaf)
        return keccak256(b"".join(digests))
