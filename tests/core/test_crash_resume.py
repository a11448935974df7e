"""Pause at every boundary, continue, settle byte-identically.

The acceptance criterion for pausable sessions: stopping at *any* phase
boundary — including the boundaries RECOVERY_TRANSITIONS re-entry edges
create after retry/re-match/degrade directives — and calling ``run()``
again must reproduce the uninterrupted run's settlement bytes exactly, at
the same seed; the armed injector rides along on the live session, so the
continued run faces exactly the faults still owed.  And the rule a crashed
session comes back by (``control.supervisor.BoundaryRecorder``): a twin
market built from the same seed reaches the paused session's checkpoint
digest at every one of those boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    SCENARIOS,
    FaultInjector,
    Marketplace,
    MLTrainingKind,
    ModelSpec,
    TrainingSpec,
    WorkloadSession,
    WorkloadSpec,
    run_with_faults,
)
from repro.errors import SessionPaused
from repro.ml.datasets import (
    make_iot_activity,
    split_dirichlet,
    train_test_split,
)
from repro.storage.semantic import ConceptRequirement, SemanticAnnotation
from repro.utils.serialization import canonical_json

N_PROVIDERS = 3
N_EXECUTORS = 3
EXECUTOR_NAMES = tuple(f"e{index}" for index in range(N_EXECUTORS))
PROVIDER_NAMES = tuple(f"u{index}" for index in range(N_PROVIDERS))


def build_market(seed: int = 42):
    rng = np.random.default_rng(seed)
    data = make_iot_activity(600, rng)
    train, validation = train_test_split(data, 0.25, rng)
    parts = split_dirichlet(train, N_PROVIDERS, 1.0, rng, min_samples=15)
    market = Marketplace(seed=seed)
    for index, part in enumerate(parts):
        market.add_provider(PROVIDER_NAMES[index], part,
                            SemanticAnnotation("heart_rate", {}))
    consumer = market.add_consumer("c", validation=validation)
    for name in EXECUTOR_NAMES:
        market.add_executor(name)
    return market, consumer


def make_kind() -> MLTrainingKind:
    return MLTrainingKind(WorkloadSpec(
        workload_id="wl-resume",
        requirement=ConceptRequirement("physiological"),
        model=ModelSpec(family="softmax", num_features=6, num_classes=5),
        training=TrainingSpec(steps=10, learning_rate=0.3),
        reward_pool=600_000,
        min_providers=2,
        min_samples=50,
        required_confirmations=2,
    ))


def settlement_key(session) -> str:
    """Canonical fingerprint of everything settlement-observable."""
    ctx = session.ctx
    injected = (list(session.injector.injected)
                if session.injector is not None else [])
    return canonical_json({
        "outcome": session.outcome,
        "payouts": dict(ctx.payouts),
        "gas": session.gas_used,
        "blocks": session.blocks_mined,
        "recoveries": [dict(entry) for entry in ctx.recovery_log],
        "injected": injected,
        "blacklist": sorted(ctx.blacklist),
        "dropped": sorted(ctx.dropped_providers),
        "refunded": ctx.refunded,
        "hash": ctx.result_hash,
        "params": ctx.result_vector,
        "session": session.session_id,
    })


class _PauseAt:
    def __init__(self, k: int):
        self.k = k
        self.fired = 0

    def __call__(self, session, next_phase):
        boundary = self.fired
        self.fired += 1
        if boundary == self.k:
            raise SessionPaused("crash point")


def scenario_boundaries(plan) -> list[tuple[str, str, str]]:
    """(state, next_phase, checkpoint digest) at every boundary of the
    scenario's uninterrupted run."""
    market, consumer = build_market()
    boundaries: list[tuple[str, str, str]] = []
    run_with_faults(
        market, consumer, make_kind(), plan,
        on_phase_boundary=lambda s, n: boundaries.append(
            (s.state, n, s.digest())),
    )
    return boundaries


def paused_session(plan, boundary: int):
    """A fresh seed-built market's session, stopped at ``boundary``."""
    market, consumer = build_market()
    session = WorkloadSession(
        market, consumer, make_kind(), recover=True,
        injector=FaultInjector(plan), on_phase_boundary=_PauseAt(boundary),
    )
    with pytest.raises(SessionPaused):
        session.run()
    return session


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_resumes_byte_identically_from_every_boundary(name):
    plan = SCENARIOS[name].plan(EXECUTOR_NAMES, PROVIDER_NAMES)

    market, consumer = build_market()
    baseline = run_with_faults(market, consumer, make_kind(), plan)
    baseline_key = settlement_key(baseline)
    recoveries = baseline.ctx.recovery_log

    boundaries = scenario_boundaries(plan)
    assert boundaries, "scenario produced no phase boundaries"

    recovery_edges = [
        index for index, (state, next_phase, _) in enumerate(boundaries)
        if any(entry.get("target") == next_phase
               and entry.get("phase") == state
               for entry in recoveries)
    ]
    if recoveries:
        # The pause sweep must cover the recovery re-entry edges, not just
        # the straight-line boundaries.
        assert recovery_edges

    for pause_at, (state, next_phase, _) in enumerate(boundaries):
        session = paused_session(plan, pause_at)
        assert (session.state, session.next_phase) == (state, next_phase)
        session.run()  # failing scenarios legitimately fail after a pause
        assert settlement_key(session) == baseline_key, (
            f"{name}: boundary {pause_at} ({state} -> {next_phase}) "
            f"did not continue byte-identically"
        )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_twin_replay_reaches_the_paused_digest_at_every_boundary(name):
    plan = SCENARIOS[name].plan(EXECUTOR_NAMES, PROVIDER_NAMES)
    # The twin: a second market from the seed, replaying without a pause.
    replayed = scenario_boundaries(plan)
    for pause_at, (state, next_phase, digest) in enumerate(replayed):
        paused = paused_session(plan, pause_at)
        assert paused.digest() == digest, (
            f"{name}: twin diverged at boundary {pause_at} "
            f"({state} -> {next_phase})"
        )


def test_happy_path_session_id_is_preserved_across_restore():
    market, consumer = build_market()
    session = WorkloadSession(market, consumer, make_kind(),
                              on_phase_boundary=_PauseAt(0))
    with pytest.raises(SessionPaused):
        session.run()
    session_id = session.session_id
    counter_before = market._session_counter
    report = session.run()
    # Continuing must not burn a fresh session id: it IS the same session,
    # and later sessions' ids must not shift.
    assert report.session_id == session.session_id == session_id
    assert market._session_counter == counter_before
