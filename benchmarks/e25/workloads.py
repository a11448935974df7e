"""The four E25 workloads, built from ``--seed`` and nothing else.

Every builder drives the production defaults exactly as a user gets them
(``Marketplace(seed=...)``, ``Blockchain(consensus, registry=registry)``; no
``verify_mode=`` / ``execution=`` / ``engine=`` arguments), so a later
change that promotes a fast path to default shows as a gain here and one
that adds a flag does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority
from repro.chain.contract import default_registry
from repro.chain.transaction import Transaction
from repro.core import (
    AggregateKind,
    AggregateSpec,
    FaultKind,
    FaultPlan,
    Marketplace,
    ModelSpec,
    TrainingSpec,
    WorkloadSpec,
    run_with_faults,
)
from repro.ml.datasets import make_iot_activity, split_iid
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation

REQUIREMENT = ConceptRequirement("physiological")

BULK_WALLETS = 64
BULK_BLOCK_TXS = 512
BULK_GAS_LIMIT = 50_000

#: One fault per ``ml_faulted`` session, cycling; executor faults strike
#: ``e{i % 3}``, provider faults ``u{i % 8}``, chain rejects any sender.
FAULT_CYCLE = (
    (FaultKind.CRASH_EXECUTE, "e"),
    (FaultKind.DROP_SUBMISSION, "u"),
    (FaultKind.CRASH_SUBMIT, "e"),
    (FaultKind.CHAIN_REJECT, ""),
    (FaultKind.PROVIDER_CHURN, "u"),
    (FaultKind.CRASH_REGISTER, "e"),
)


class EventList:
    """Event-bus sink handing each op its own trail."""

    def __init__(self) -> None:
        self.events: list = []

    def emit(self, event: Any) -> None:
        self.events.append(event)

    def take(self) -> list:
        events, self.events = self.events, []
        return events


@dataclass
class Built:
    """One set-up workload: a chain and the op that is timed on it."""

    chain: Blockchain
    #: ``run_op(i)`` is the timed region of op ``i``.
    run_op: Callable[[int], None]
    #: Lifecycle workloads: the session trail sink and the escrow per session.
    trail: Optional[EventList] = None
    reward_pool: int = 0
    #: ``(owner, attribute)`` instance hooks the traced pass also probes.
    hooks: tuple[tuple[Any, str], ...] = ()
    #: chain_bulk: transaction hashes per op, for the receipt check.
    tx_hashes: list[list[bytes]] = field(default_factory=list)


def _market(seed: int, providers: int, rows: int, executors: int):
    """A marketplace with equal-sized provider partitions.

    ``split_iid`` keeps every provider at exactly ``rows`` rows on every
    seed, so the seed changes the data, keys and addresses but not the
    amount of work.
    """
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


def _sessions(market: Marketplace, reward_pool: int,
              run_op: Callable[[int], None]) -> Built:
    trail = EventList()
    market.events.attach(trail)
    return Built(market.chain, run_op, trail, reward_pool,
                 hooks=((market.tracer, "on_finish"),))


def _ml_spec(workload_id: str, steps: int, min_providers: int,
             reward_pool: int) -> WorkloadSpec:
    return WorkloadSpec(
        workload_id=workload_id,
        requirement=REQUIREMENT,
        model=ModelSpec(family="softmax", num_features=6, num_classes=5),
        training=TrainingSpec(steps=steps, learning_rate=0.3),
        reward_pool=reward_pool,
        min_providers=min_providers,
        min_samples=50,
        required_confirmations=2,
    )


def build_ml_wide(seed: int, ops: int) -> Built:
    reward_pool = 600_000
    market, consumer = _market(seed, providers=16, rows=150,
                                      executors=4)

    def run_op(index: int) -> None:
        market.run_workload(
            consumer, _ml_spec(f"wide-{index}", 60, 16, reward_pool))

    return _sessions(market, reward_pool, run_op)


def build_agg_sustained(seed: int, ops: int) -> Built:
    reward_pool = 50_000
    market, consumer = _market(seed, providers=4, rows=25,
                                      executors=2)
    agg_spec = AggregateSpec(AggregateKind.MEAN, field_index=3)

    def run_op(index: int) -> None:
        market.run_aggregate_workload(
            consumer, f"agg-{index}", REQUIREMENT, agg_spec,
            reward_pool=reward_pool, min_providers=4, min_samples=50,
            required_confirmations=2,
        )

    return _sessions(market, reward_pool, run_op)


def build_ml_faulted(seed: int, ops: int) -> Built:
    reward_pool = 600_000
    market, consumer = _market(seed, providers=8, rows=100,
                                      executors=3)

    def run_op(index: int) -> None:
        kind, actor = FAULT_CYCLE[index % len(FAULT_CYCLE)]
        target = {"e": f"e{index % 3}", "u": f"u{index % 8}", "": ""}[actor]
        # min_providers leaves room for recovery to shed one provider.
        run_with_faults(
            market, consumer, _ml_spec(f"faulted-{index}", 30, 7, reward_pool),
            FaultPlan.single(kind, target=target), recover=True,
        )

    return _sessions(market, reward_pool, run_op)


def build_chain_bulk(seed: int, ops: int) -> Built:
    """A bare default chain, 64 funded wallets, one ERC-20, and ``ops``
    blocks of 512 signed ``transfer`` transactions ready to submit."""
    rng = np.random.default_rng(seed)
    consensus = ProofOfAuthority.with_generated_validators(3, rng)
    registry = default_registry()
    chain = Blockchain(consensus, registry=registry)
    deployer = Wallet.generate(chain, rng, "deployer")
    wallets = [Wallet.generate(chain, rng, f"w{index}")
               for index in range(BULK_WALLETS)]
    for wallet in (deployer, *wallets):
        chain.state.credit(wallet.address, 10**12)
    token = deployer.deploy_and_mine("erc20", initial_supply=10**15)
    for wallet in wallets:
        deployer.call(token, "transfer", gas_limit=BULK_GAS_LIMIT,
                      recipient=wallet.address, amount=10**12)
    chain.mine_block()

    per_wallet = BULK_BLOCK_TXS // BULK_WALLETS
    blocks: list[list[Transaction]] = []
    for block in range(ops):
        txs = []
        for slot in range(per_wallet):
            for index, wallet in enumerate(wallets):
                recipient = wallets[(index + 1 + slot) % BULK_WALLETS]
                txs.append(Transaction(
                    sender=wallet.address,
                    nonce=block * per_wallet + slot,
                    to=token,
                    value=0,
                    payload={"method": "transfer", "args": {
                        "recipient": recipient.address,
                        "amount": int(rng.integers(100, 1000)),
                    }},
                    gas_limit=BULK_GAS_LIMIT,
                ).sign(wallet.key))
        blocks.append(txs)

    def run_op(index: int) -> None:
        for tx in blocks[index]:
            chain.submit(tx)
        chain.mine_block()

    return Built(chain, run_op,
                 tx_hashes=[[tx.tx_hash for tx in txs] for txs in blocks])


BUILDERS: dict[str, Callable[[int, int], Built]] = {
    "ml_wide": build_ml_wide,
    "agg_sustained": build_agg_sustained,
    "ml_faulted": build_ml_faulted,
    "chain_bulk": build_chain_bulk,
}
