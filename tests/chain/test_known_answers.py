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

A third re-pin came with packed float64 provider rows (``core/workload.py``:
``serialize_partition``/``join_rows``).  A provider's encoded rows are what
its dataset content hash, ``size_bytes``, certificate data root and
certificate hash commit to, and both entry points' code changed with the
decoder, so in the two marketplace scenarios ``state_root``, ``head``,
``roots`` and ``receipts`` moved once more; ``height`` and ``gas`` did not.

``structure`` is what the receipts say with every identity taken out: status,
gas, error, logs with the byte commitments (``COMMITMENTS``) masked, return
value, created address and block, and no transaction hash.  Computed with
the enclave measurement alone masked at ``d865906``, it was equal at both
commits above: neither changed what any transaction did.  With the
commitments masked as well it is equal on both sides of the row-format
change.
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


#: Log fields that commit to bytes rather than say what a transaction did:
#: the enclave measurement, and the hashes of a provider's encoded rows.
COMMITMENTS = ("code_measurement", "content_hash", "certificate_hash",
               "data_root")


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
                 {key: f"<{key}>" if key in COMMITMENTS else value
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
            "618f58eeaae7ec1ff423edc152a029dad577fd669bdbdb6258bc356b4a3cf955",
        "head":
            "fe9da2d668ef0a15b37a224ebb012ce199c9b2f53a859df47b4cc0545651bdd6",
        "roots":
            "779e5ad5c53489140de6bb6cdd23f9ee6dd3d7a8b3f1f0f8d4ad64e6c7f57508",
        "receipts":
            "831967184a2256a9d1043a3bb755a1b4526f7aec56ce35054565e2355ccc6453",
        "structure":
            "3b00bff1c029d9333045f1fed021ad349fe9612a03ccef514c37942889f8fe92",
    },
    "aggregate_sessions": {
        "height": 20,
        "gas": 1740719,
        "state_root":
            "cc3b433022367ae4c3548dfd705cbb184473d957663d6a2325dc0c852650946c",
        "head":
            "174ba4f6be3e56bfe5093926adc247ce16b67460d2aa713ee6269b77d474b547",
        "roots":
            "bfd390a92b877bedb38af9835bb0bf9b0f9ea3689f4b8fb2bdf211e1bddab2e1",
        "receipts":
            "4dfbd0624d6738d1dce6f4d6fe2df0cf3194dabad5a095a14dcafcd5caddc030",
        "structure":
            "951a5c06bf093c0d57e700827123465c41103a558f0196134213b0a98c412694",
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
