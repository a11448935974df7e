"""Quickstart: one workload through the full PDS2 marketplace.

Builds a marketplace with eight wearable-device providers, one research-lab
consumer, and two TEE executors, then runs the complete Fig. 2 lifecycle:
contract deployment, semantic matching, attestation, encrypted data
submission with participation certificates, enclave training, quorum result
confirmation, reward payout, and a trustless audit.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import Marketplace, ModelSpec, TrainingSpec, WorkloadSpec
from repro.ml.datasets import (
    HAR_ACTIVITIES,
    make_iot_activity,
    split_dirichlet,
    train_test_split,
)
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation


def main() -> None:
    rng = np.random.default_rng(2026)

    # -- the data: activity windows from personal wearables ------------------
    data = make_iot_activity(2400, rng)
    train, validation = train_test_split(data, 0.25, rng)
    partitions = split_dirichlet(train, 8, alpha=1.0, rng=rng,
                                 min_samples=30)

    # -- the marketplace ------------------------------------------------------
    market = Marketplace(seed=42)
    for index, partition in enumerate(partitions):
        market.add_provider(
            name=f"wearable-user-{index}",
            dataset=partition,
            annotation=SemanticAnnotation("heart_rate",
                                          {"rate_hz": 1.0, "region": "EU"}),
        )
    consumer = market.add_consumer("research-lab", validation=validation)
    for index in range(2):
        market.add_executor(f"executor-{index}")

    # -- the workload contract -------------------------------------------------
    spec = WorkloadSpec(
        workload_id="activity-recognition-v1",
        description="Train an activity classifier on wearable sensor data",
        requirement=ConceptRequirement("physiological"),
        model=ModelSpec(family="softmax", num_features=6,
                        num_classes=len(HAR_ACTIVITIES)),
        training=TrainingSpec(steps=200, learning_rate=0.3, batch_size=32),
        reward_pool=1_000_000,
        min_providers=5,
        min_samples=500,
        infra_share_bps=1_000,
        required_confirmations=2,
    )

    print(f"submitting workload {spec.workload_id!r} "
          f"(spec hash {spec.spec_hash[:16]}…)")
    session = market.run_workload(consumer, spec)
    if session.failure is not None:  # a failed run is returned, not raised
        raise SystemExit(f"workload {session.outcome}: "
                         f"{type(session.failure).__name__}: "
                         f"{session.failure}")
    ctx = session.ctx

    print(f"\nworkload contract: {ctx.workload_address}")
    print(f"participants:      {len(ctx.participants)} providers")
    accuracy = consumer.evaluate_result(spec, ctx.result_vector)
    print(f"model accuracy:    {accuracy:.3f} (consumer validation set)")
    print(f"result hash:       {ctx.result_hash[:16]}…")
    print(f"gas consumed:      {session.gas_used:,} over "
          f"{session.blocks_mined} blocks")

    print("\nreward payouts:")
    for address, amount in sorted(ctx.payouts.items(),
                                  key=lambda item: -item[1]):
        share = amount / spec.reward_pool
        print(f"  {address[:10]}…  {amount:>9,} tokens  ({share:6.2%})")
    print(f"  total            {sum(ctx.payouts.values()):>9,} tokens")

    audit = ctx.audit
    print(f"\naudit: clean={audit.clean} chain_valid={audit.chain_valid} "
          f"rewards_conserved={audit.rewards_conserved} "
          f"certificates={audit.certificates}")


if __name__ == "__main__":
    main()
