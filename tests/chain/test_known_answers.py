"""Known-answer state roots, block hashes, gas and receipts.

The values were computed at commit ``5d597fa`` — whole-state deepcopy
isolation, whole-state re-encoding for every root — by running this file's
scenario builders against that checkout.  Journaled revert and the spliced
incremental root must reproduce every byte: a state root commits to all of
storage, a block hash to the root, the receipt digest to gas, logs, return
values and revert messages.
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
    receipts = []
    for block in chain.blocks:
        for tx in block.transactions:
            receipt = chain.receipt_for(tx.tx_hash)
            receipts.append({
                "tx": receipt.tx_hash, "status": receipt.status,
                "gas": receipt.gas_used, "error": receipt.error,
                "logs": [log.to_dict() for log in receipt.logs],
                "return": receipt.return_value,
                "created": receipt.contract_address,
                "block": receipt.block_number,
            })
    return {
        "height": chain.height,
        "gas": chain.total_gas_used,
        "state_root": chain.state.state_root().hex(),
        "head": chain.head.block_hash.hex(),
        "roots": hash_object(
            [block.header.state_root for block in chain.blocks]).hex(),
        "receipts": hash_object(receipts).hex(),
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
            "8328fdb1db8adb26faf0e5d113002505f1397d114d335a778fa26dae6d565e18",
        "head":
            "65633b3dcd0021de539167ac1127d323ddeee6593d9fa9322cc81253edf77dfc",
        "roots":
            "0395d0b2722bafb726c8a09a319ff6265970613d5e2f55d9bec6b5adda0601fb",
        "receipts":
            "15e1d0b9cb56b04015b406741d59fa36ff7927d70bbc71ba92468b24d19b5b28",
    },
    "aggregate_sessions": {
        "height": 20,
        "gas": 1740719,
        "state_root":
            "63b05e2417523a80f8b165fe2f01020985cda6b8461a61a897f6399598bfdc38",
        "head":
            "5fc8ef04d3f467a6c4bed13b2212452d0fad46046500055962dcdd9d2dc884e8",
        "roots":
            "e7c3f49bb7f30a3bf17a5bedcd1b7a0efb541b2383d15d65582944ba15b7c823",
        "receipts":
            "ff0853ab6c9fe62ef0cbd2ca5ed871e18160cdd70b87e0bb148f54c6b3f4671c",
    },
    "erc20_block_with_revert": {
        "height": 2,
        "gas": 203245,
        "state_root":
            "885e6feb39d208fe9b9cbfc7fb551717f56e937079f92167b7dc952fd91a2364",
        "head":
            "3fdc14923a40ab4e0782f7d0374b5c192032be19ab1767cf8fd98962e5017039",
        "roots":
            "59ed4ce512cda51386b77c60c76df1fb526cf34382ab90a92aec814c66ad8b88",
        "receipts":
            "135b2c831da791230805359141eef405039ac43ae3736af098ea533d188b169f",
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
