"""E13 (ablation, Section III-A): token standards vs native transfers.

The paper selects ERC-20 for rewards and ERC-721 for data deeds.  Both cost
gas over a plain native transfer.  This ablation profiles every operation so
a deployment can judge the price of the richer semantics (allowances,
provenance, per-token metadata).
"""

from __future__ import annotations

import numpy as np

from repro.bench import Experiment, format_table, info, lower_is_better
from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority


def build_chain():
    rng = np.random.default_rng(13)
    chain = Blockchain(ProofOfAuthority.with_generated_validators(1, rng))
    alice = Wallet.generate(chain, rng, "alice")
    bob = Wallet.generate(chain, rng, "bob")
    chain.state.credit(alice.address, 10**12)
    chain.state.credit(bob.address, 10**12)
    return chain, alice, bob


def run_bench(quick: bool = False) -> dict:
    """Profile every token operation (gas is fully deterministic)."""
    chain, alice, bob = build_chain()
    rows = []

    # Native transfer baseline.
    tx_hash = alice.transfer(bob.address, 1000)
    chain.mine_block()
    native_gas = chain.receipt_for(tx_hash).gas_used
    rows.append(["native transfer", f"{native_gas:,}", "1.0x"])

    gas: dict[str, int] = {"native_transfer": native_gas}

    # ERC-20 operations.
    erc20 = alice.deploy_and_mine("erc20", initial_supply=10**9)
    r = alice.call_and_mine(erc20, "transfer", recipient=bob.address,
                            amount=1000)
    gas["erc20_transfer"] = r.gas_used
    rows.append(["erc20 transfer", f"{r.gas_used:,}",
                 f"{r.gas_used / native_gas:.1f}x"])
    r = alice.call_and_mine(erc20, "approve", spender=bob.address,
                            amount=5000)
    gas["erc20_approve"] = r.gas_used
    rows.append(["erc20 approve", f"{r.gas_used:,}",
                 f"{r.gas_used / native_gas:.1f}x"])
    r = bob.call_and_mine(erc20, "transfer_from", owner=alice.address,
                          recipient=bob.address, amount=1000)
    gas["erc20_transfer_from"] = r.gas_used
    rows.append(["erc20 transfer_from", f"{r.gas_used:,}",
                 f"{r.gas_used / native_gas:.1f}x"])
    r = alice.call_and_mine(erc20, "mint", recipient=bob.address,
                            amount=1000)
    gas["erc20_mint"] = r.gas_used
    rows.append(["erc20 mint", f"{r.gas_used:,}",
                 f"{r.gas_used / native_gas:.1f}x"])

    # ERC-721 operations (data deeds).
    erc721 = alice.deploy_and_mine("erc721")
    r = alice.call_and_mine(erc721, "mint", recipient=alice.address,
                            uri="pds2://dataset/x", content_hash="ab" * 32)
    gas["erc721_mint"] = r.gas_used
    rows.append(["erc721 mint (deed)", f"{r.gas_used:,}",
                 f"{r.gas_used / native_gas:.1f}x"])
    r = alice.call_and_mine(erc721, "transfer_from", sender=alice.address,
                            recipient=bob.address, token_id=0)
    gas["erc721_transfer"] = r.gas_used
    rows.append(["erc721 transfer", f"{r.gas_used:,}",
                 f"{r.gas_used / native_gas:.1f}x"])

    lines = format_table(["operation", "gas", "vs native"], rows)
    metrics = {
        "native_transfer_gas": lower_is_better(native_gas, unit="gas"),
        "erc20_transfer_gas": lower_is_better(gas["erc20_transfer"],
                                              unit="gas"),
        "erc721_mint_gas": lower_is_better(gas["erc721_mint"], unit="gas"),
        "erc20_overhead": info(gas["erc20_transfer"] / native_gas,
                               unit="x"),
    }
    # The richer semantics cost a bounded constant factor, not magnitudes.
    claims = {"bounded_overhead":
              native_gas < gas["erc20_transfer"] < 20 * native_gas}
    return {"metrics": metrics, "lines": lines, "claims": claims}


EXPERIMENT = Experiment("E13", "ERC-20/721 gas ablation", run_bench)
