"""Two sessions, one market: each session owns its context.

Two consumers' sessions are alternated through ``Marketplace.drive`` at
their phase boundaries on one market.  Each must come out as it does when
it runs alone on an identically built market: the same span tree, the same
event trail (block heights and clocks differ, and the validator that seals
a block rotates with the height), the same gas, blocks, payouts and outcome.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    Marketplace,
    MLTrainingKind,
    ModelSpec,
    TrainingSpec,
    WorkloadSession,
    WorkloadSpec,
)
from repro.ml.datasets import make_iot_activity, split_dirichlet
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation


def build_sessions() -> tuple[Marketplace, list[WorkloadSession]]:
    rng = np.random.default_rng(8)
    market = Marketplace(seed=8, validators=3)
    for index, part in enumerate(split_dirichlet(
            make_iot_activity(400, rng), 3, 1.0, rng, min_samples=15)):
        market.add_provider(f"u{index}", part,
                            SemanticAnnotation("heart_rate", {}))
    consumers = [market.add_consumer(f"c{index}") for index in range(2)]
    for index in range(3):
        market.add_executor(f"e{index}")
    sessions = [
        WorkloadSession(market, consumer, MLTrainingKind(WorkloadSpec(
            workload_id=f"wl-{index}",
            requirement=ConceptRequirement("physiological"),
            model=ModelSpec(family="softmax", num_features=6, num_classes=5),
            training=TrainingSpec(steps=8 + 4 * index, learning_rate=0.3),
            reward_pool=300_000 + 100_000 * index,
            min_providers=2,
            min_samples=40,
            required_confirmations=2,
        )))
        for index, consumer in enumerate(consumers)
    ]
    return market, sessions


def shape(session: WorkloadSession) -> dict:
    """What must not depend on what else ran on the market."""
    names = {event.data["span_id"]: event.data["name"]
             for event in session.trail if event.name == "span.end"}
    spans, trail = [], []
    for event in session.trail:
        if event.name == "span.end":
            span = event.data
            spans.append((span["name"], names.get(span["parent_id"], "")))
            continue
        actor = "" if event.name == "chain.block_mined" else event.actor
        trail.append((event.name, event.phase, event.data, actor))
    return {
        "spans": spans,
        "trail": trail,
        "gas_used": session.gas_used,
        "blocks_mined": session.blocks_mined,
        "payouts": session.ctx.payouts,
        "outcome": session.outcome,
    }


def test_alternated_sessions_match_their_solo_runs():
    market, sessions = build_sessions()
    drivers = [market.drive(session.steps(), session)
               for session in sessions]
    boundaries = []
    while drivers:
        for driver in list(drivers):
            phase = next(driver, None)
            if phase is None:
                drivers.remove(driver)
            else:
                boundaries.append((driver, phase))
    # The two sessions really took turns at every boundary.
    assert len(boundaries) >= 16
    assert all(a[0] is not b[0] for a, b in zip(boundaries, boundaries[1:]))

    for index, session in enumerate(sessions):
        _, alone = build_sessions()  # both built, so the ids agree
        alone[index].run()
        assert session.outcome == "settled"
        assert shape(session) == shape(alone[index])
        assert session.gas_used > 0 and session.ctx.payouts


def test_a_dropped_session_closes_its_spans_on_its_own_stack():
    market, sessions = build_sessions()
    first, second = (market.drive(session.steps(), session)
                     for session in sessions)
    next(first)
    next(second)
    del first  # left at a boundary, then dropped
    for _ in second:
        pass
    assert market.tracer.current is None
    assert sessions[1].outcome == "settled"
    roots = [event.data for event in sessions[0].trail
             if event.name == "span.end"
             and event.data["name"] == "lifecycle.session"]
    assert [root["status"] for root in roots] == ["error"]
    assert "GeneratorExit" in roots[0]["error"]
