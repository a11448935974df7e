"""Smart-contract programming model for the blockchain substrate.

Contracts are Python classes deriving from :class:`Contract`.  The paper's
governance layer (Section III-A) needs Turing-complete contracts with events,
storage, revert semantics and gas accounting; this module provides exactly
that surface:

* all persistent state lives in ``self.storage`` (a nested dict of JSON-safe
  values) and is accessed through :meth:`sread` / :meth:`swrite`, which charge
  gas per slot touched;
* ``self.emit(...)`` appends to the transaction's event log;
* ``self.require(...)`` reverts the whole call (the VM rolls storage back);
* any public method (name not starting with ``_``) is externally callable;
* cross-contract calls go through ``self.ctx.call(...)`` with the caller's
  address as the new sender, mirroring Ethereum message calls.

A :class:`ContractRegistry` maps deployable names to classes, playing the
role of compiled bytecode.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.chain import gas as gas_schedule
from repro.errors import ContractError
from repro.utils.serialization import canonical_json_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.chain.vm import ExecutionContext

_MISSING = object()


class Contract:
    """Base class for every deployable contract."""

    def __init__(self) -> None:
        self.storage: dict = {}
        self.address: str = ""
        # The context of the innermost call executing on this contract;
        # ``VM.execute_call`` saves and restores it around nested calls.
        self._ctx: "ExecutionContext | None" = None

    # -- execution context ----------------------------------------------------

    @property
    def ctx(self) -> "ExecutionContext":
        """The context of the call currently executing on this contract."""
        ctx = self._ctx
        if ctx is None:
            raise ContractError("contract accessed outside a transaction")
        return ctx

    def setup(self, **args: Any) -> None:
        """Constructor body, run once inside the deploying transaction."""

    # -- storage access (gas-metered) ------------------------------------------

    def sread(self, *path: str, default: Any = _MISSING) -> Any:
        """Read a storage slot at a nested ``path`` of keys.

        Charges :data:`~repro.chain.gas.STORAGE_READ`.  Raises
        :class:`ContractError` when the slot is missing and no ``default``
        was provided.  The returned value is always a *snapshot*: mutate it
        and write it back with :meth:`swrite` (the idiom every contract here
        uses); in-place mutation without a write-back changes nothing.
        """
        ctx = self.ctx
        ctx.charge(gas_schedule.STORAGE_READ)
        found, value = ctx.storage_read(self, path)
        if not found:
            if default is _MISSING:
                raise ContractError(f"storage slot {'/'.join(path)} is empty")
            return default
        return value

    def swrite(self, value: Any, *path: str) -> None:
        """Write a storage slot, creating intermediate dicts as needed.

        Charges :data:`~repro.chain.gas.STORAGE_WRITE`.  The context must be
        writable; static (read-only) calls revert here.
        """
        if not path:
            raise ContractError("storage writes need a non-empty path")
        ctx = self.ctx
        ctx.require_writable()
        ctx.charge(gas_schedule.STORAGE_WRITE)
        ctx.storage_write(self, path, value)

    def sdelete(self, *path: str) -> None:
        """Delete a storage slot if present (charged as a write)."""
        if not path:
            raise ContractError("storage deletes need a non-empty path")
        ctx = self.ctx
        ctx.require_writable()
        ctx.charge(gas_schedule.STORAGE_WRITE)
        ctx.storage_delete(self, path)

    # -- integrity auditing ------------------------------------------------------

    def audit_invariants(self, state: Any) -> list[str]:
        """Conservation invariants the chain auditor re-checks every block.

        Returns human-readable descriptions of any violated invariant
        (empty list = healthy).  Runs *outside* any transaction — access
        ``self.storage`` directly, never :meth:`sread` — and must not
        mutate anything.  ``state`` is the chain's
        :class:`~repro.chain.state.WorldState`, for invariants that relate
        storage to account balances (e.g. escrow backing).
        """
        return []

    # -- events, guards, compute ------------------------------------------------

    def emit(self, name: str, **data: Any) -> None:
        """Emit an event into the transaction log."""
        self.ctx.require_writable()
        payload_size = len(canonical_json_bytes(data))
        self.ctx.charge(
            gas_schedule.EVENT_BASE + payload_size * gas_schedule.EVENT_DATA_BYTE
        )
        self.ctx.log_event(self.address, name, data)

    def require(self, condition: Any, message: str) -> None:
        """Revert the call with ``message`` unless ``condition`` is truthy."""
        if not condition:
            raise ContractError(message)

    def step(self, count: int = 1) -> None:
        """Charge ``count`` abstract compute steps (loops, hashes, compares)."""
        self.ctx.charge(count * gas_schedule.COMPUTE_STEP)

    # -- dispatch ----------------------------------------------------------------

    @classmethod
    def external_methods(cls) -> set[str]:
        """Names of externally callable methods (public, not framework)."""
        framework = {
            "setup", "sread", "swrite", "sdelete", "emit", "require", "step",
            "external_methods", "ctx", "storage", "address", "audit_invariants",
        }
        names = set()
        for name in dir(cls):
            if name.startswith("_") or name in framework:
                continue
            if callable(getattr(cls, name, None)):
                names.add(name)
        return names


class ContractRegistry:
    """Maps deployable contract names to classes (the 'bytecode store')."""

    def __init__(self) -> None:
        self._classes: dict[str, type[Contract]] = {}

    def register(self, name: str, contract_class: type[Contract]) -> None:
        """Register ``contract_class`` under ``name`` for deployment."""
        if not issubclass(contract_class, Contract):
            raise TypeError("contract classes must derive from Contract")
        if name in self._classes:
            raise ValueError(f"contract name {name!r} already registered")
        self._classes[name] = contract_class

    def get(self, name: str) -> type[Contract]:
        """Look up a registered class, raising ContractError when unknown."""
        if name not in self._classes:
            raise ContractError(f"no contract registered under {name!r}")
        return self._classes[name]

    def names(self) -> list[str]:
        """All registered contract names, sorted."""
        return sorted(self._classes)


def default_registry() -> ContractRegistry:
    """A registry pre-loaded with the standard token contracts."""
    from repro.chain.tokens.erc20 import ERC20Token
    from repro.chain.tokens.erc721 import ERC721Token

    registry = ContractRegistry()
    registry.register("erc20", ERC20Token)
    registry.register("erc721", ERC721Token)
    return registry
