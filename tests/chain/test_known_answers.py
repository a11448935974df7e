"""Known-answer state roots, block hashes, gas and receipts.

``height``, ``gas`` and ``receipts`` were computed at commit ``5d597fa`` —
whole-state deepcopy isolation, whole-state re-encoding for every root — by
running this file's scenario builders against that checkout.  Journaled
revert and the incremental root must reproduce every byte: a state root
commits to all of storage, a block hash to the root, the receipt digest to
gas, logs, return values and revert messages.

``state_root``, ``head`` and ``roots`` stood from ``5d597fa`` to ``d865906``
and were re-pinned twice in the one golden-value change that followed, one
cause per commit:

* ``aaf7470`` replaced the flat state-root document by the two-level
  commitment (``WorldState.state_root``): the format of the root changed, so
  every root and every block hash (a header commits to its root) changed
  with it, and nothing else did — ``height``, ``gas`` and ``receipts`` were
  byte-equal across that commit.
* ``198bf29`` measures an enclave by its code object instead of its source
  text (``tee/enclave.py``: ``_describe``).  The measurement hex is contract
  storage and transaction payload, so in the two marketplace scenarios the
  roots and hashes moved again and ``receipts`` (which holds transaction
  hashes and the ``code_measurement`` log field) moved for the first time;
  ``erc20_block_with_revert`` has no enclave and kept its ``aaf7470`` values.

``structure`` is what the receipts say with every identity taken out: status,
gas, error, logs with the enclave measurement masked, return value, created
address and block, and no transaction hash.  It was computed at ``d865906``
and is equal at both commits above: neither changed what any transaction
did.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority
from repro.chain.contract import default_registry
from repro.core import (
    AggregateKind,
    AggregateSpec,
    Marketplace,
    ModelSpec,
    TrainingSpec,
    WorkloadSpec,
)
from repro.crypto.hashing import hash_object
from repro.ml.datasets import make_iot_activity, split_iid
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation

REQUIREMENT = ConceptRequirement("physiological")


def fingerprint(chain: Blockchain) -> dict:
    """Digests of everything a changed state transition would move."""
    receipts, structure = [], []
    for block in chain.blocks:
        for tx in block.transactions:
            receipt = chain.receipt_for(tx.tx_hash)
            blind = {
                "status": receipt.status, "gas": receipt.gas_used,
                "error": receipt.error,
                "logs": [log.to_dict() for log in receipt.logs],
                "return": receipt.return_value,
                "created": receipt.contract_address,
                "block": receipt.block_number,
            }
            receipts.append({"tx": receipt.tx_hash, **blind})
            structure.append({**blind, "logs": [
                [log.address, log.name,
                 {key: "<measurement>" if key == "code_measurement" else value
                  for key, value in log.data.items()}]
                for log in receipt.logs]})
    return {
        "height": chain.height,
        "gas": chain.total_gas_used,
        "state_root": chain.state.state_root().hex(),
        "head": chain.head.block_hash.hex(),
        "roots": hash_object(
            [block.header.state_root for block in chain.blocks]).hex(),
        "receipts": hash_object(receipts).hex(),
        "structure": hash_object(structure).hex(),
    }


def small_market(seed: int, providers: int, rows: int, executors: int):
    rng = np.random.default_rng(seed)
    data = make_iot_activity(providers * rows, rng)
    market = Marketplace(seed=seed)
    for index, part in enumerate(split_iid(data, providers, rng)):
        market.add_provider(f"u{index}", part,
                            SemanticAnnotation("heart_rate", {}))
    consumer = market.add_consumer("c")
    for index in range(executors):
        market.add_executor(f"e{index}")
    return market, consumer


def lifecycle_session() -> Blockchain:
    market, consumer = small_market(5, providers=3, rows=40, executors=2)
    market.run_workload(consumer, WorkloadSpec(
        workload_id="ka-ml",
        requirement=REQUIREMENT,
        model=ModelSpec(family="softmax", num_features=6, num_classes=5),
        training=TrainingSpec(steps=10, learning_rate=0.3),
        reward_pool=90_000,
        min_providers=3,
        min_samples=50,
        required_confirmations=2,
    ))
    return market.chain


def aggregate_session(market: Marketplace, consumer, workload_id: str):
    return market.run_aggregate_workload(
        consumer, workload_id, REQUIREMENT,
        AggregateSpec(AggregateKind.MEAN, field_index=3),
        reward_pool=50_000, min_providers=4, min_samples=50,
        required_confirmations=2,
    )


def aggregate_sessions() -> Blockchain:
    """Two sessions, so the second root splices an untouched contract."""
    market, consumer = small_market(6, providers=4, rows=25, executors=2)
    for index in range(2):
        aggregate_session(market, consumer, f"ka-agg-{index}")
    return market.chain


def erc20_block_with_revert() -> Blockchain:
    rng = np.random.default_rng(7)
    consensus = ProofOfAuthority.with_generated_validators(2, rng)
    chain = Blockchain(consensus, registry=default_registry())
    wallets = [Wallet.generate(chain, rng, f"w{index}") for index in range(4)]
    for wallet in wallets:
        chain.state.credit(wallet.address, 10**12)
    token = wallets[0].deploy_and_mine("erc20", initial_supply=10**6)
    wallets[0].call(token, "transfer", recipient=wallets[1].address,
                    amount=1000)
    wallets[1].call(token, "transfer", recipient=wallets[2].address,
                    amount=400)
    # Overdraws: reverts inside the block, gas still paid.
    wallets[3].call(token, "transfer", recipient=wallets[0].address,
                    amount=1)
    wallets[2].transfer(wallets[3].address, 12345)
    chain.mine_block()
    return chain


KNOWN = {
    "lifecycle_session": {
        "height": 14,
        "gas": 1064405,
        "state_root":
            "82783c8983916c318eeb02895c543a8df041517f4999cde1cda3f46f73579bb4",
        "head":
            "ef7df81dec4611257fca6e4081b05cb76d0c65094001b431a0f407772f0243dc",
        "roots":
            "14a0b845f183c0339b0e82bee0818122e3f5452cb6f1bf186222b11301b8a046",
        "receipts":
            "21f9dccfadf38f96dffc58b89542ee0005f404bbf8ef591c00c0b400a0246c53",
        "structure":
            "8678fb8671c51b4d54b4aa15fb06e8ac7b506a67c315018213b953cbdf9032f3",
    },
    "aggregate_sessions": {
        "height": 20,
        "gas": 1740719,
        "state_root":
            "88439f2defeeab57c7d60f7ccbf06866883d4644236715e2affadddbed9f39c0",
        "head":
            "ba7c2ac7a27eae4804807814e0464dd8377fb36f25a095c1d9d7331b9a5cfe80",
        "roots":
            "30f78c7fae1e9e59903f9f603149d785c0a5a91249b7db4d3ca0cf625feade89",
        "receipts":
            "fd4cafe0d919cf7697b26e0313c2557793529440706e9491fb71d7a33ebb087a",
        "structure":
            "edfaf4a8873428cd7aa1b1b7b5ebe8532e9e065b10d79b07b0351d8e4080de1b",
    },
    "erc20_block_with_revert": {
        "height": 2,
        "gas": 203245,
        "state_root":
            "ab91ca4fa6f2455b05b2bd66d4e70e4b287165df911fdb267015f469680ded4c",
        "head":
            "d1632645791d332114f181cf0d3f3d0d3dd31f53daa1cfafb4e1bf32d0b54657",
        "roots":
            "6468eb489c4419e419f2a6d0e113594decb18c818cf909d35db33af9c252c3bc",
        "receipts":
            "135b2c831da791230805359141eef405039ac43ae3736af098ea533d188b169f",
        "structure":
            "3feab8d69e1f0a057aa9ae2dfecea05648b35cf05da1ed4181a2222ea1219ece",
    },
}

#: What an enclave measurement reaches: it is contract storage (every root,
#: so every block hash) and transaction payload (every transaction hash).
MEASURED = ("state_root", "head", "roots", "receipts")


def expect(chain: Blockchain, scenario: str, measured: bool) -> None:
    got, known = fingerprint(chain), dict(KNOWN[scenario])
    if measured and sys.version_info[:2] != (3, 11):
        # A measurement covers bytecode, which is the interpreter's: the
        # pinned identities are CPython 3.11's (what CI runs).
        for key in MEASURED:
            del got[key], known[key]
    assert got == known


def test_lifecycle_session_matches_5d597fa():
    expect(lifecycle_session(), "lifecycle_session", measured=True)


def test_aggregate_sessions_match_5d597fa():
    expect(aggregate_sessions(), "aggregate_sessions", measured=True)


def test_erc20_block_with_revert_matches_5d597fa():
    chain = erc20_block_with_revert()
    statuses = [chain.receipt_for(tx.tx_hash).status
                for tx in chain.head.transactions]
    assert statuses.count(False) == 1
    expect(chain, "erc20_block_with_revert", measured=False)
