"""Gas schedule for the blockchain substrate.

The constants follow the spirit (and, where meaningful, the magnitudes) of
the Ethereum yellow paper: a flat per-transaction base cost, per-byte calldata
costs, and contract-level costs charged by the VM for storage access and
event emission.  Absolute values matter less than *ratios* — the
governance-scalability experiment (E12) reports relative gas growth.
"""

from __future__ import annotations

#: Flat cost of any transaction (signature check, nonce bump, bookkeeping).
TX_BASE = 21_000

#: Cost per byte of canonical-JSON transaction payload.
TX_DATA_BYTE = 16

#: Deploying a contract (charged on top of the base + data costs).
CONTRACT_CREATE = 32_000

#: Writing one storage slot (a key in a contract's storage dict).
STORAGE_WRITE = 5_000

#: Reading one storage slot.
STORAGE_READ = 200

#: Emitting one event, plus a per-byte cost on the event payload.
EVENT_BASE = 375
EVENT_DATA_BYTE = 8

#: Default gas limit for a block.
BLOCK_GAS_LIMIT = 30_000_000

#: Default per-transaction gas limit used by convenience helpers.
DEFAULT_TX_GAS_LIMIT = 2_000_000

#: Default gas price (in wei-like base currency units per gas).
DEFAULT_GAS_PRICE = 1
