"""Two markets, one process: a marketplace is a value.

Two markets are built before either runs, then their sessions alternate at
every phase boundary, each through its own market's ``drive``.  Each
session must come out exactly as it does alone on a freshly built market —
also alone in a fresh interpreter: the same digest, gas, blocks, payouts
and outcome, the same event trail and the same span tree, sim clocks
included.  Nothing a market does may land on, or read from, the other.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.chain.audit import install_state_corruption
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
from tests.core.trail_sink import TrailSink

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: ``span.end`` events of one session of :func:`build` (its whole tree).
SESSION_SPANS = 44


def build(seed: int) -> WorkloadSession:
    """A market of three providers and three executors, and one session
    on it that has not started."""
    rng = np.random.default_rng(seed)
    market = Marketplace(seed=seed, validators=3)
    for index, part in enumerate(split_dirichlet(
            make_iot_activity(400, rng), 3, 1.0, rng, min_samples=15)):
        market.add_provider(f"u{index}", part,
                            SemanticAnnotation("heart_rate", {}))
    consumer = market.add_consumer("c")
    for index in range(3):
        market.add_executor(f"e{index}")
    return WorkloadSession(market, consumer, MLTrainingKind(WorkloadSpec(
        workload_id=f"wl-{seed}",
        requirement=ConceptRequirement("physiological"),
        model=ModelSpec(family="softmax", num_features=6, num_classes=5),
        training=TrainingSpec(steps=8, learning_rate=0.3),
        reward_pool=300_000,
        min_providers=2,
        min_samples=40,
        required_confirmations=2,
    )))


def shape(session: WorkloadSession) -> dict:
    """Everything about a session that must not depend on what else ran in
    the process, as JSON (so a fresh interpreter's compares equal)."""
    ends = [event.data for event in session.trail
            if event.name == "span.end"]
    names = {span["span_id"]: span["name"] for span in ends}
    return json.loads(json.dumps({
        "digest": session.digest(),
        "gas_used": session.gas_used,
        "blocks_mined": session.blocks_mined,
        "payouts": session.ctx.payouts,
        "outcome": session.outcome,
        "trail": [(event.name, event.phase, event.data, event.actor,
                   event.block_height, event.sim_clock, event.gas_delta)
                  for event in session.trail if event.name != "span.end"],
        "spans": [(span["name"], names.get(span["parent_id"], ""),
                   span["status"], span["start_sim"], span["end_sim"])
                  for span in ends],
    }, sort_keys=True, default=dict))


def solo(seed: int) -> dict:
    return shape(build(seed).run())


def alternate(sessions: list[WorkloadSession]) -> None:
    """Run ``sessions`` to the end, one boundary of each in turn."""
    drivers = [session.market.drive(session.steps(), session)
               for session in sessions]
    turns = []
    while drivers:
        for driver in list(drivers):
            if next(driver, None) is None:
                drivers.remove(driver)
            else:
                turns.append(driver)
    assert len(turns) >= 16
    assert all(a is not b for a, b in zip(turns, turns[1:]))


@pytest.mark.parametrize("seeds", [(8, 9), (8, 8)],
                         ids=["different-seeds", "same-seed"])
def test_alternated_markets_match_their_solo_runs(seeds):
    sessions = [build(seed) for seed in seeds]  # both built, then run
    alternate(sessions)
    for seed, session in zip(seeds, sessions):
        assert session.outcome == "settled"
        assert shape(session) == solo(seed)
    spans = [event for event in sessions[0].trail if event.name == "span.end"]
    assert len(spans) == SESSION_SPANS
    assert sessions[0].market.tracer.current is None


def test_an_alternated_session_matches_a_fresh_interpreter():
    sessions = [build(8), build(9)]
    alternate(sessions)
    script = ("import json, sys; from tests.core.test_two_markets import solo;"
              " json.dump(solo(8), sys.stdout)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(REPO, "src"), REPO]))
    fresh = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                           capture_output=True, text=True, check=True,
                           timeout=300)
    assert shape(sessions[0]) == json.loads(fresh.stdout)


def test_a_forensic_bundle_holds_only_its_own_markets_spans():
    """A corrupted block on one market, while the other market's session
    takes its turns: the bundle's span window is the first market's."""
    sessions = [build(8), build(9)]
    sinks = [session.market.events.attach(TrailSink())
             for session in sessions]
    chain = sessions[0].market.chain
    install_state_corruption(chain, block_number=chain.height + 4, seed=3)
    alternate(sessions)
    (bundle,) = chain.auditor.bundles
    published = [{event.data["span_id"] for event in sink.events
                  if event.name == "span.end"} for sink in sinks]
    window = {span["span_id"] for span in bundle["recent_spans"]}
    assert window and window <= published[0]
    assert not window & published[1]
