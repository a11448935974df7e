"""Blockchain substrate: the governance layer's ledger (paper Section III-A).

An Ethereum-style chain built from scratch: ECDSA accounts, gas-metered
transactions, a contract VM with revert semantics and events, proof-of-
authority sealing, and the ERC-20 / ERC-721 token standards the paper selects
for rewards and data deeds.  Throughput machinery on top: a nonce-ordered
fee-prioritized mempool and amortized batch signature verification at block
entry.
"""

from repro.chain.block import Block, BlockHeader
from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority, Validator
from repro.chain.contract import Contract, ContractRegistry, default_registry
from repro.chain.mempool import Mempool
from repro.chain.state import WorldState, WriteJournal
from repro.chain.transaction import CREATE, LogEntry, Receipt, Transaction
from repro.chain.vm import VM, BlockContext, ExecutionContext, GasMeter

__all__ = [
    "Block",
    "BlockHeader",
    "Blockchain",
    "Wallet",
    "ProofOfAuthority",
    "Validator",
    "Contract",
    "ContractRegistry",
    "default_registry",
    "Mempool",
    "WorldState",
    "WriteJournal",
    "CREATE",
    "LogEntry",
    "Receipt",
    "Transaction",
    "VM",
    "BlockContext",
    "ExecutionContext",
    "GasMeter",
]
