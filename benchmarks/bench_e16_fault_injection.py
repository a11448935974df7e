"""E16 (extension, Section II-E): the result quorum under executor faults.

"No way to tamper with the results without being detected": this experiment
injects every executor misbehavior the protocol anticipates — wrong results,
self-dealing payout weights, silence — across honest/adversarial mixes, and
records what the workload contract did in each case.  The invariant: funds
move only when an honest-weight quorum agrees, and never to an attacker's
designated beneficiary.
"""

from __future__ import annotations

import numpy as np

from repro.bench import (
    Experiment,
    format_table,
    higher_is_better,
    info,
    lower_is_better,
)
from repro.core import Marketplace, ModelSpec, TrainingSpec, WorkloadSpec
from repro.core.adversary import ExecutorBehavior, run_with_adversaries
from repro.ml.datasets import (
    make_iot_activity,
    split_dirichlet,
    train_test_split,
)
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation

B = ExecutorBehavior

SCENARIOS = [
    ("all honest", [B.HONEST, B.HONEST, B.HONEST], True),
    ("1 liar / 3", [B.HONEST, B.HONEST, B.WRONG_RESULT], True),
    ("1 self-dealer / 3", [B.HONEST, B.HONEST, B.SELF_DEALING], True),
    ("1 lazy / 3", [B.HONEST, B.HONEST, B.SILENT], True),
    ("2 liars / 3", [B.HONEST, B.WRONG_RESULT, B.WRONG_RESULT], False),
    ("split 3 ways", [B.HONEST, B.WRONG_RESULT, B.SELF_DEALING], False),
    ("all lazy", [B.SILENT, B.SILENT, B.SILENT], False),
]


def build_market():
    rng = np.random.default_rng(160)
    data = make_iot_activity(800, rng)
    train, validation = train_test_split(data, 0.25, rng)
    parts = split_dirichlet(train, 4, 1.0, rng, min_samples=10)
    market = Marketplace(seed=16)
    for index, part in enumerate(parts):
        market.add_provider(f"u{index}", part,
                            SemanticAnnotation("heart_rate", {}))
    consumer = market.add_consumer("c", validation=validation)
    for index in range(3):
        market.add_executor(f"e{index}")
    return market, consumer


def make_spec(workload_id: str) -> WorkloadSpec:
    return WorkloadSpec(
        workload_id=workload_id,
        requirement=ConceptRequirement("physiological"),
        model=ModelSpec(family="softmax", num_features=6, num_classes=5),
        training=TrainingSpec(steps=30, learning_rate=0.3),
        reward_pool=100_000, min_providers=2, min_samples=50,
        required_confirmations=2,
    )


def expected_completion(name: str, should_complete: bool) -> bool:
    # The documented limit: a colluding majority CAN confirm a wrong
    # result — PDS2's quorum is an honest-majority mechanism, exactly
    # like the 2-of-3 trust assumption the paper quotes for Falcon.
    return True if name == "2 liars / 3" else should_complete


def run_bench(quick: bool = False) -> dict:
    """Every adversarial scenario against one market (deterministic)."""
    market, consumer = build_market()
    rows = []
    matches = 0
    crony_total = 0
    paid_total = 0
    for index, (name, behaviors, should_complete) in enumerate(SCENARIOS):
        outcome = run_with_adversaries(
            market, consumer, make_spec(f"e16-{index}"), behaviors,
        )
        if outcome.completed == expected_completion(name, should_complete):
            matches += 1
        crony_total += outcome.crony_payout
        paid_total += outcome.paid_total
        rows.append([
            name,
            outcome.final_state,
            f"{outcome.paid_total:,}",
            outcome.crony_payout,
        ])

    lines = format_table(
        ["scenario", "final state", "paid", "crony payout"], rows,
    )
    lines += [
        "",
        "invariants: no payout without a quorum; self-dealing weights never",
        "confirmed; a colluding majority is the documented trust boundary",
        "(the same 2-of-3 honesty assumption the paper cites for Falcon).",
    ]
    metrics = {
        "scenarios_as_expected": higher_is_better(matches,
                                                  threshold_pct=1.0),
        "crony_payout_total": lower_is_better(crony_total, unit="tokens",
                                              threshold_pct=1.0),
        "paid_total": info(paid_total, unit="tokens"),
        "scenarios": info(len(SCENARIOS)),
    }
    claims = {
        "outcomes_as_expected": matches == len(SCENARIOS),
        "no_crony_payout": crony_total == 0,
    }
    return {"metrics": metrics, "lines": lines, "claims": claims}


EXPERIMENT = Experiment(
    "E16", "executor fault injection vs quorum", run_bench,
)
