"""The contract virtual machine: transaction application and call dispatch.

``VM.apply_transaction`` implements the full Ethereum-style state transition:

1. structural validation, nonce check, upfront gas purchase (the signature
   was already checked, once, at block entry — see ``Blockchain.mine_block``);
2. intrinsic gas for calldata;
3. value transfer and contract dispatch under a per-transaction write
   journal (:class:`~repro.chain.state.WriteJournal`);
4. on :class:`ContractError` (revert) or :class:`OutOfGasError`, the journal
   is reverted — gas is still consumed;
5. unused gas is refunded and the fee is credited to the block's validator.

Static (read-only) calls let clients query contract views for free without a
transaction; any write attempt inside a static call reverts.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any

from repro.chain import gas as gas_schedule
from repro.chain.contract import ContractRegistry
from repro.chain.state import WorldState, WriteJournal
from repro.chain.transaction import CREATE, LogEntry, Receipt, Transaction
from repro.crypto.hashing import keccak256
from repro.errors import (
    ContractError,
    InsufficientBalanceError,
    InvalidTransactionError,
    OutOfGasError,
)
from repro.telemetry import metrics as _tm

#: Depth limit for nested cross-contract calls.
MAX_CALL_DEPTH = 64

#: Sentinel for "no child node" during storage navigation.
_NO_NODE = object()

# VM telemetry: per-transaction application outcome and gas distribution.
# Spans stop at the mine_block level — a per-tx span would dominate the
# cost of applying the cheap transactions it measures; the sampling
# profiler names `VM.apply_transaction` by its frame.
_TX_APPLIED = _tm.counter(
    "pds2_vm_txs_applied_total", "Transactions applied, by outcome",
    labelnames=("status",),
)
_TX_GAS_HIST = _tm.histogram(
    "pds2_vm_tx_gas", "Gas used per applied transaction",
    buckets=_tm.GAS_BUCKETS,
)


@dataclass
class BlockContext:
    """Ambient block data visible to contracts (``block.number`` etc.)."""

    number: int
    timestamp: float
    validator: str


class ExecutionContext:
    """Per-call execution environment handed to contracts.

    One context exists per message call; nested calls get child contexts that
    share the same gas meter and log.
    """

    def __init__(self, vm: "VM", state: WorldState, block: BlockContext,
                 origin: str, sender: str, value: int, gas_meter: "GasMeter",
                 logs: list[LogEntry], static: bool, depth: int = 0):
        self._vm = vm
        self._state = state
        self.block = block
        self.origin = origin
        self.sender = sender
        self.value = value
        self._gas = gas_meter
        self._logs = logs
        self._static = static
        self._depth = depth

    # -- gas ---------------------------------------------------------------

    def charge(self, amount: int) -> None:
        """Consume ``amount`` gas, raising OutOfGasError when exhausted."""
        self._gas.charge(amount)

    # -- write protection -----------------------------------------------------

    def require_writable(self) -> None:
        """Revert when called inside a static (read-only) context."""
        if self._static:
            raise ContractError("state modification inside a static call")

    # -- events ------------------------------------------------------------

    def log_event(self, address: str, name: str, data: dict) -> None:
        self._logs.append(LogEntry(address=address, name=name, data=data))

    # -- contract storage (navigation + journaling) ---------------------------

    def storage_read(self, contract, path: tuple) -> tuple[bool, Any]:
        """Navigate a storage path; returns ``(found, value)``.

        Mutable values are returned as deep copies: the governance
        contracts mutate read results in place before writing them back,
        and a live reference would make the journal's pre-images lies and
        let a static view write.
        """
        node: Any = contract.storage
        for key in path:
            if not isinstance(node, dict) or key not in node:
                return False, None
            node = node[key]
        if isinstance(node, (dict, list)):
            node = copy.deepcopy(node)
        return True, node

    def storage_write(self, contract, path: tuple, value: Any) -> None:
        """Write a storage slot, creating intermediate dicts as needed.

        Mutable values are stored as deep copies, as :meth:`storage_read`
        hands them out: a dict or list taken from a transaction's payload
        would otherwise be live storage, and a later nested write would
        edit the mined transaction.
        """
        if isinstance(value, (dict, list)):
            value = copy.deepcopy(value)
        state = self._state
        journal = state.tx_journal
        state.storage_changed(contract.address)
        node = contract.storage
        created: Any = None
        for depth, key in enumerate(path[:-1]):
            child = node.get(key, _NO_NODE)
            if child is _NO_NODE:
                if created is None:
                    created = tuple(path[:depth + 1])
                child = {}
                node[key] = child
            elif not isinstance(child, dict):
                raise ContractError(
                    f"storage path {'/'.join(path)} crosses a non-dict slot"
                )
            node = child
        if journal is not None:
            journal.record_slot(contract, tuple(path), node, created)
        node[path[-1]] = value

    def storage_delete(self, contract, path: tuple) -> None:
        """Delete a storage slot if present."""
        state = self._state
        journal = state.tx_journal
        node: Any = contract.storage
        for key in path[:-1]:
            if not isinstance(node, dict) or key not in node:
                return
            node = node[key]
        if not isinstance(node, dict) or path[-1] not in node:
            return
        if journal is not None:
            journal.record_slot(contract, tuple(path), node, None)
        state.storage_changed(contract.address)
        node.pop(path[-1], None)

    def transfer(self, recipient: str, amount: int) -> None:
        """Move base currency out of the *current contract's* balance."""
        self.require_writable()
        self.charge(gas_schedule.STORAGE_WRITE)
        try:
            self._state.transfer(self._current_address(), recipient, amount)
        except InsufficientBalanceError as exc:
            raise ContractError(str(exc)) from exc

    def _current_address(self) -> str:
        # The sender seen by a *nested* call is the calling contract, so for
        # transfer purposes the "current" contract is tracked explicitly.
        return self._self_address

    _self_address: str = ""

    # -- cross-contract calls -----------------------------------------------------

    def call(self, address: str, method: str, **args: Any) -> Any:
        """Call another contract with this contract as the message sender
        (no value moves with the call)."""
        if self._depth + 1 > MAX_CALL_DEPTH:
            raise ContractError("maximum call depth exceeded")
        return self._vm.execute_call(
            state=self._state,
            block=self.block,
            origin=self.origin,
            sender=self._self_address,
            target=address,
            method=method,
            args=args,
            value=0,
            gas_meter=self._gas,
            logs=self._logs,
            static=self._static,
            depth=self._depth + 1,
        )


class GasMeter:
    """Tracks gas consumption against a hard limit."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self, amount: int) -> None:
        if amount < 0:
            raise ValueError("gas charges must be non-negative")
        self.used += amount
        if self.used > self.limit:
            raise OutOfGasError(f"gas limit {self.limit} exceeded")


@dataclass
class VM:
    """Applies transactions and dispatches contract calls."""

    registry: ContractRegistry

    # -- top-level transaction application ------------------------------------------

    def apply_transaction(self, state: WorldState, block: BlockContext,
                          tx: Transaction) -> Receipt:
        """Run the full state transition for one transaction.

        Execution runs under a write journal attached to the state, so a
        revert undoes exactly what the transaction wrote.  The signature is
        not checked here: ``Blockchain.mine_block`` batch-verifies every
        transaction once at block entry and hands over only the ones that
        passed.
        """
        tx.validate_shape()
        if state.nonce_of(tx.sender) != tx.nonce:
            raise InvalidTransactionError(
                f"bad nonce: expected {state.nonce_of(tx.sender)}, got {tx.nonce}"
            )
        upfront = tx.gas_limit * tx.gas_price
        if state.balance_of(tx.sender) < upfront + tx.value:
            raise InsufficientBalanceError(
                f"{tx.sender} cannot cover value {tx.value} + max fee {upfront}"
            )
        # Buy gas and bump nonce; these survive even a reverted execution.
        state.debit(tx.sender, upfront)
        state.bump_nonce(tx.sender)

        meter = GasMeter(tx.gas_limit)
        logs: list[LogEntry] = []
        journal = WriteJournal(state)
        state.attach_journal(journal)
        receipt = Receipt(tx_hash=tx.tx_hash, status=True, gas_used=0)
        try:
            meter.charge(tx.intrinsic_gas)
            if tx.to is CREATE:
                receipt.contract_address = self._deploy(
                    state, block, tx, meter, logs
                )
            else:
                receipt.return_value = self._call_top(
                    state, block, tx, meter, logs
                )
        except (ContractError, OutOfGasError) as exc:
            journal.revert()
            receipt.status = False
            receipt.error = str(exc)
            receipt.contract_address = None
            if isinstance(exc, OutOfGasError):
                meter.used = meter.limit
        finally:
            state.attach_journal(None)
        receipt.gas_used = min(meter.used, meter.limit)
        receipt.logs = logs if receipt.status else []
        # Refund unused gas; pay the validator for what was burned.
        refund = (tx.gas_limit - receipt.gas_used) * tx.gas_price
        state.credit(tx.sender, refund)
        state.credit(block.validator, receipt.gas_used * tx.gas_price)
        receipt.block_number = block.number
        _TX_APPLIED.labels(status="ok" if receipt.status else "reverted").inc()
        _TX_GAS_HIST.observe(receipt.gas_used)
        return receipt

    # -- deployment ----------------------------------------------------------------

    @staticmethod
    def contract_address_for(sender: str, nonce: int) -> str:
        """Deterministic deployment address: hash(sender || nonce)[-20:]."""
        digest = keccak256(sender.encode("ascii") + nonce.to_bytes(8, "big"))
        return "0x" + digest[-20:].hex()

    def _deploy(self, state: WorldState, block: BlockContext, tx: Transaction,
                meter: GasMeter, logs: list[LogEntry]) -> str:
        name = tx.payload.get("contract")
        if not isinstance(name, str):
            raise ContractError("deploy payload must name a registered contract")
        args = tx.payload.get("args", {})
        if not isinstance(args, dict):
            raise ContractError("deploy args must be a dict")
        contract_class = self.registry.get(name)
        address = self.contract_address_for(tx.sender, tx.nonce)
        contract = contract_class()
        state.install_contract(address, contract)
        if tx.value:
            state.transfer(tx.sender, address, tx.value)
        ctx = ExecutionContext(
            vm=self, state=state, block=block, origin=tx.sender,
            sender=tx.sender, value=tx.value, gas_meter=meter, logs=logs,
            static=False,
        )
        ctx._self_address = address
        contract._ctx = ctx
        try:
            contract.setup(**args)
        finally:
            contract._ctx = None
        return address

    # -- calls ----------------------------------------------------------------------

    def _call_top(self, state: WorldState, block: BlockContext,
                  tx: Transaction, meter: GasMeter,
                  logs: list[LogEntry]) -> Any:
        if not state.has_contract(tx.to):
            # Plain value transfer to an externally-owned account.
            if tx.payload:
                raise ContractError(f"no contract at {tx.to} to receive a call")
            state.transfer(tx.sender, tx.to, tx.value)
            return None
        if not tx.payload:
            # Plain value transfer to a contract (a payable receive).
            state.transfer(tx.sender, tx.to, tx.value)
            return None
        method = tx.payload.get("method")
        if not isinstance(method, str):
            raise ContractError("call payload must include a method name")
        args = tx.payload.get("args", {})
        if not isinstance(args, dict):
            raise ContractError("call args must be a dict")
        return self.execute_call(
            state=state, block=block, origin=tx.sender, sender=tx.sender,
            target=tx.to, method=method, args=args, value=tx.value,
            gas_meter=meter, logs=logs, static=False, depth=0,
        )

    def execute_call(self, state: WorldState, block: BlockContext, origin: str,
                     sender: str, target: str, method: str, args: dict,
                     value: int, gas_meter: GasMeter, logs: list[LogEntry],
                     static: bool, depth: int) -> Any:
        """Dispatch one message call to a deployed contract."""
        contract = state.contract_at(target)
        if method not in type(contract).external_methods():
            raise ContractError(
                f"{type(contract).__name__} has no external method {method!r}"
            )
        if value:
            if static:
                raise ContractError("value transfer inside a static call")
            try:
                state.transfer(sender, target, value)
            except InsufficientBalanceError as exc:
                raise ContractError(str(exc)) from exc
        ctx = ExecutionContext(
            vm=self, state=state, block=block, origin=origin, sender=sender,
            value=value, gas_meter=gas_meter, logs=logs, static=static,
            depth=depth,
        )
        ctx._self_address = target
        previous_ctx = contract._ctx
        contract._ctx = ctx
        try:
            bound = getattr(contract, method)
            try:
                return bound(**args)
            except TypeError as exc:
                # Argument mismatches are contract-call errors, not crashes.
                raise ContractError(f"bad call arguments: {exc}") from exc
        finally:
            contract._ctx = previous_ctx

    # -- free views -------------------------------------------------------------------

    def static_view(self, state: WorldState, block: BlockContext, caller: str,
                    target: str, method: str, **args: Any) -> Any:
        """Query a contract view without a transaction (free, read-only).

        The call is static, so every write path reverts
        (``require_writable``) and every storage read is a copy; nothing
        needs restoring afterwards.  Gas is metered against a generous
        limit only to bound runaway loops.
        """
        return self.execute_call(
            state=state, block=block, origin=caller, sender=caller,
            target=target, method=method, args=args, value=0,
            gas_meter=GasMeter(gas_schedule.BLOCK_GAS_LIMIT), logs=[],
            static=True, depth=0,
        )
