"""Known-answer state roots, block hashes, gas and receipts.

``height``, ``gas`` and ``receipts`` were computed at commit ``5d597fa`` —
whole-state deepcopy isolation, whole-state re-encoding for every root — by
running this file's scenario builders against that checkout.  Journaled
revert and the incremental root must reproduce every byte: a state root
commits to all of storage, a block hash to the root, the receipt digest to
gas, logs, return values and revert messages.

``state_root``, ``head`` and ``roots`` stood from ``5d597fa`` to ``d865906``
and were re-pinned once, on the commit after ``d865906`` that replaced the
flat state-root document by the two-level commitment
(``WorldState.state_root``): the format of the root changed, so every root
and every block hash (a header commits to its root) changed with it, and
nothing else did — ``height``, ``gas`` and ``receipts`` were byte-equal
across that commit.

``structure`` is what a receipt says with every identity taken out: status,
gas, error, log names and data with the enclave measurement masked, return
value, created address and block, and no transaction hash.  It was computed
at ``d865906`` and holds across any change of root format or of how an
enclave is measured.
"""

from __future__ import annotations

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
            logs = [log.to_dict() for log in receipt.logs]
            blind = {
                "status": receipt.status, "gas": receipt.gas_used,
                "error": receipt.error, "logs": logs,
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
            "0a5d1c7354f838443f8ae13a0e3bd7fba91eb4f515525f4869c80b15586a7fbe",
        "head":
            "c0d571be4560d0e7c4033d3482e8b191035dc41d40480f2e8ba7ee07f569c17e",
        "roots":
            "65f56d3620ab81f1d4a3335f4d83b458bf7c036c373623ebbd83e4b721aabde4",
        "receipts":
            "15e1d0b9cb56b04015b406741d59fa36ff7927d70bbc71ba92468b24d19b5b28",
        "structure":
            "8678fb8671c51b4d54b4aa15fb06e8ac7b506a67c315018213b953cbdf9032f3",
    },
    "aggregate_sessions": {
        "height": 20,
        "gas": 1740719,
        "state_root":
            "120339a578f730e086d7ef7618399ff6f61d0f513db9f598fd3c73180481afa7",
        "head":
            "f42f8f3705b7b59131b6178106ea3ea60c6204e2630a26192d7b66084572f6ef",
        "roots":
            "ee0a70604311075cc45d09c046536afa01cd8b2dd6dd5ce53fc3b5533bbeacbb",
        "receipts":
            "ff0853ab6c9fe62ef0cbd2ca5ed871e18160cdd70b87e0bb148f54c6b3f4671c",
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


def test_lifecycle_session_matches_5d597fa():
    assert fingerprint(lifecycle_session()) == KNOWN["lifecycle_session"]


def test_aggregate_sessions_match_5d597fa():
    assert fingerprint(aggregate_sessions()) == KNOWN["aggregate_sessions"]


def test_erc20_block_with_revert_matches_5d597fa():
    chain = erc20_block_with_revert()
    statuses = [chain.receipt_for(tx.tx_hash).status
                for tx in chain.head.transactions]
    assert statuses.count(False) == 1
    assert fingerprint(chain) == KNOWN["erc20_block_with_revert"]
