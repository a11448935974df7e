"""Differential test: round-tick FedAvg must be byte-identical to the
event-driven oracle (``fedavg_oracle.py``) at matched seeds.

Every comparison is strict equality on every :class:`FederatedResult`
field and on the transport counters each run adds.  The grid crosses
seeds, availability (1.0 means no churn), a churning or reliable server,
round intervals from shorter than a round trip (about 0.1 s) to longer
than a churn session, eval intervals that do and do not divide the
duration, and a softmax and an MLP model.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.ml.datasets import (
    make_iot_activity,
    split_dirichlet,
    train_test_split,
)
from repro.ml.federated import FederatedConfig, FederatedTrainer
from repro.ml.models import MLPClassifier, SoftmaxRegressionModel
from repro.net.churn import ChurnModel
from repro.net.topology import (
    _MSG_DELIVERED,
    _MSG_DROPPED,
    _MSG_SENT,
    _NET_BYTES_DELIVERED,
)
from tests.ml.fedavg_oracle import EventFederatedTrainer

NUM_FEATURES = 6
NUM_CLASSES = 5

MODELS = {
    "softmax": lambda: SoftmaxRegressionModel(NUM_FEATURES, NUM_CLASSES,
                                              l2=0.01),
    "mlp": lambda: MLPClassifier(NUM_FEATURES, 4, NUM_CLASSES, l2=0.01,
                                 init_rng=np.random.default_rng(0)),
}
#: (round interval, duration, eval interval): a round shorter than a
#: round trip (every update lands after the next tick), one just longer,
#: several rounds between checkpoints, and rounds longer than a mean
#: churn session; eval intervals that do and do not divide the duration.
TIMINGS = [
    (0.05, 1.2, 0.5), (0.12, 1.2, 0.4),
    (2.5, 24.0, 8.0), (2.5, 24.0, 7.0),
    (9.0, 60.0, 20.0), (9.0, 60.0, 25.0),
]
AVAILABILITY = [1.0, 0.9, 0.5, 0.2]
SEEDS = [0, 1, 2, 3, 4, 5]

GRID = [
    pytest.param(model, seed, availability, server_churn, timing,
                 id=f"{model}-s{seed}-a{availability}-"
                    f"{'srv' if server_churn else 'rel'}-r{timing[0]}"
                    f"-e{timing[2]}")
    for model, seed, availability, server_churn, timing in itertools.product(
        MODELS, SEEDS, AVAILABILITY, (False, True), TIMINGS)
    if availability < 1.0 or not server_churn
]


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(11)
    data = make_iot_activity(400, rng)
    train, test = train_test_split(data, 0.25, rng)
    parts = split_dirichlet(train, 8, alpha=1.0, rng=rng, min_samples=5)
    return parts, test


def counters() -> tuple[float, ...]:
    return (_MSG_SENT.value, _MSG_DELIVERED.value, _MSG_DROPPED.value,
            _NET_BYTES_DELIVERED.labels().value)


def run_engine(engine, problem, model, seed, availability, server_churn,
               timing):
    parts, test = problem
    interval, duration, eval_interval = timing
    churn = (None if availability == 1.0 else
             ChurnModel.from_availability(availability, mean_online_s=6.0))
    before = counters()
    result = engine(MODELS[model], parts, test,
                    FederatedConfig(round_interval_s=interval,
                                    client_fraction=0.5, local_steps=2,
                                    batch_size=8, learning_rate=0.3),
                    seed=seed, churn=churn,
                    server_subject_to_churn=server_churn,
                    ).run(duration, eval_interval)
    after = counters()
    return result, tuple(a - b for a, b in zip(after, before))


@pytest.mark.parametrize("model,seed,availability,server_churn,timing", GRID)
def test_round_loop_matches_event_oracle(problem, model, seed, availability,
                                         server_churn, timing):
    args = (problem, model, seed, availability, server_churn, timing)
    oracle, oracle_traffic = run_engine(EventFederatedTrainer, *args)
    loop, loop_traffic = run_engine(FederatedTrainer, *args)
    assert loop.history == oracle.history
    assert loop.final_score == oracle.final_score
    assert loop.bytes_delivered == oracle.bytes_delivered
    assert loop.messages_delivered == oracle.messages_delivered
    assert loop.messages_dropped == oracle.messages_dropped
    assert loop.server_bytes == oracle.server_bytes
    assert loop.rounds_completed == oracle.rounds_completed
    assert loop.rounds_empty == oracle.rounds_empty
    assert loop == oracle
    assert loop_traffic == oracle_traffic
