"""Federated learning (FedAvg) — the centralized baseline of Section III-C.

McMahan et al.'s FedAvg on the network model the gossip kernels use: at
every round tick a coordinator samples the online clients, sends them the
global model, each trains locally and uploads its update, and the server
replaces the global model with the sample-weighted average of the updates
that arrived.

A run is a loop over round ticks.  Online state comes from
:meth:`~repro.net.churn.ChurnModel.precompute_timeline` (a node is online
at ``t`` iff an even number of its toggles lie at or before ``t``), and
every message's fate is closed form:

* a message sent at ``t`` arrives at ``t + (MEAN_LATENCY_S + size /
  sender uplink)``; one that would arrive after the last checkpoint stays
  in flight;
* it is dropped when either endpoint is offline when it is sent or when
  it arrives;
* an update counts for the round it answers only if it arrives strictly
  before the server's next online tick;
* the counted updates are averaged in arrival order.  Every client has
  the same uplink, so that is the sorted order of the chosen clients.

``tests/ml/fedavg_oracle.py`` keeps the event-driven engine this loop is
checked against byte for byte.

The implementation deliberately exposes the failure modes the paper
attributes to centralization: all traffic transits the server's uplink
(bandwidth bottleneck), a round only aggregates the updates that actually
arrive (churn sensitivity), and the server is a single point of failure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.errors import MLError
from repro.ml.datasets import Dataset
from repro.ml.gossip import (
    MESSAGE_OVERHEAD_BYTES,
    eval_checkpoints,
    require_finite_positive,
)
from repro.ml.merge import merge_parameter_vectors
from repro.ml.models import Model
from repro.net.churn import ChurnModel
from repro.net.topology import (
    _MSG_DELIVERED,
    _MSG_DROPPED,
    _MSG_SENT,
    _NET_BYTES_DELIVERED,
    MEAN_LATENCY_S,
)
from repro.utils.rng import derive_rng

#: A client's uplink, 10 Mbit/s.
CLIENT_UPLOAD_BYTES_PER_S = 1_250_000.0
#: The coordinator's uplink, 100 Mbit/s — ten times a client's.
SERVER_UPLOAD_BYTES_PER_S = 12_500_000.0


@dataclass
class FederatedConfig:
    """FedAvg hyperparameters."""

    round_interval_s: float = 30.0
    client_fraction: float = 0.5
    local_steps: int = 4
    batch_size: int = 16
    learning_rate: float = 0.1

    def __post_init__(self) -> None:
        require_finite_positive(("round interval", self.round_interval_s),
                                ("learning rate", self.learning_rate))
        if not 0 < self.client_fraction <= 1:
            raise MLError("client fraction must be in (0, 1]")
        if self.local_steps < 1:
            raise MLError("local steps must be >= 1")
        if self.batch_size < 1:
            raise MLError("batch size must be >= 1")


@dataclass
class FederatedResult:
    """Outcome of one FedAvg run."""

    history: list[tuple[float, float]]
    final_score: float
    bytes_delivered: int
    messages_delivered: int
    messages_dropped: int
    server_bytes: int                 # total bytes through the coordinator
    rounds_completed: int
    rounds_empty: int = 0



class FederatedTrainer:
    """Builds and runs a FedAvg deployment.

    ``model_factory`` is called once for the server, then once per
    partition in index order (factories may be stateful).  With ``churn``
    every client churns, and the server too when
    ``server_subject_to_churn``.
    """

    def __init__(self, model_factory: Callable[[], Model],
                 partitions: list[Dataset], test_set: Dataset,
                 config: Optional[FederatedConfig] = None, seed: int = 0,
                 churn: Optional[ChurnModel] = None,
                 server_subject_to_churn: bool = False):
        if len(partitions) < 1:
            raise MLError("federated learning needs at least one client")
        self.config = config if config is not None else FederatedConfig()
        self.test_set = test_set
        self.partitions = list(partitions)
        self.seed = seed
        self.churn = churn
        self.server_subject_to_churn = server_subject_to_churn
        self.model = model_factory()
        self.client_models = [model_factory() for _ in partitions]
        self.server_rng = derive_rng(seed, "fed-server")
        self.client_rngs = [derive_rng(seed, f"fed-client-{index}")
                            for index in range(len(partitions))]

    def run(self, duration_s: float,
            eval_interval_s: float = 50.0) -> FederatedResult:
        """Run FedAvg for ``duration_s`` of simulated time, scoring the
        server model every ``eval_interval_s``."""
        config = self.config
        checkpoints = eval_checkpoints(duration_s, eval_interval_s)
        # Nothing runs past the last checkpoint: that is the horizon.
        horizon = float(checkpoints[-1]) if len(checkpoints) else 0.0
        # Nodes 0..n-1 are the clients, node n the server.
        server = len(self.partitions)
        initial = np.ones(server + 1, dtype=bool)
        toggles = [np.empty(0)] * (server + 1)
        if self.churn is not None:
            churned = server + int(self.server_subject_to_churn)
            initial[:churned], toggles[:churned] = (
                self.churn.precompute_timeline(
                    churned, derive_rng(self.seed, "fed-churn"), horizon))

        def online(node: int, t: float) -> bool:
            flips = int(np.searchsorted(toggles[node], t, side="right"))
            return bool(initial[node]) != bool(flips & 1)

        traffic = Counter()

        def transmit(src: int, dst: int, at: float,
                     latency: float) -> Optional[float]:
            """Charge one message sent at ``at``; its arrival if it lands."""
            if not (online(src, at) and online(dst, at)):
                traffic["dropped"] += 1
                return None
            traffic["sent"] += 1
            traffic["server"] += src == server
            arrival = at + latency
            if arrival > horizon:
                return None               # still in flight when the run ends
            if not online(dst, arrival):
                traffic["dropped"] += 1
                return None
            traffic["delivered"] += 1
            traffic["server"] += dst == server
            return arrival

        size = self.model.params.nbytes + MESSAGE_OVERHEAD_BYTES
        down = MEAN_LATENCY_S + size / SERVER_UPLOAD_BYTES_PER_S
        up = MEAN_LATENCY_S + size / CLIENT_UPLOAD_BYTES_PER_S
        round_number = rounds_completed = rounds_empty = 0
        # The open round's delivered updates: (arrival, params, samples).
        updates: list[tuple[float, np.ndarray, int]] = []
        history: list[tuple[float, float]] = []
        tick = 0.0
        for checkpoint in checkpoints:
            while tick + config.round_interval_s <= checkpoint:
                tick += config.round_interval_s
                if not online(server, tick):
                    continue
                # Close the open round on what arrived before this tick.
                arrived = [update for update in updates if update[0] < tick]
                if arrived:
                    self.model.set_params(merge_parameter_vectors(
                        [params for _, params, _ in arrived],
                        [float(max(1, samples))
                         for _, _, samples in arrived]))
                    rounds_completed += 1
                elif round_number > 0:
                    rounds_empty += 1
                round_number += 1
                updates = []
                ready = [c for c in range(server) if online(c, tick)]
                if not ready:
                    continue
                count = max(1, int(round(len(ready)
                                         * config.client_fraction)))
                chosen = self.server_rng.choice(
                    len(ready), size=min(count, len(ready)), replace=False)
                global_params = self.model.params
                for index in np.sort(chosen):
                    client = ready[int(index)]
                    received = transmit(server, client, tick, down)
                    if received is None:
                        continue
                    update = self._train(client, global_params)
                    arrival = transmit(client, server, received, up)
                    if arrival is not None:
                        updates.append((arrival, update,
                                        len(self.partitions[client])))
            history.append((float(checkpoint), self._score()))

        _MSG_SENT.inc(traffic["sent"])
        _MSG_DELIVERED.inc(traffic["delivered"])
        _MSG_DROPPED.inc(traffic["dropped"])
        _NET_BYTES_DELIVERED.inc(size * traffic["delivered"])
        return FederatedResult(
            history=history,
            final_score=self._score(),
            bytes_delivered=size * traffic["delivered"],
            messages_delivered=traffic["delivered"],
            messages_dropped=traffic["dropped"],
            server_bytes=size * traffic["server"],
            rounds_completed=rounds_completed,
            rounds_empty=rounds_empty,
        )

    def _train(self, client: int, global_params: np.ndarray) -> np.ndarray:
        """One client's local training from the global parameters."""
        model = self.client_models[client]
        data = self.partitions[client]
        model.set_params(global_params)
        if len(data):
            model.train_steps(
                data.features, data.targets,
                steps=self.config.local_steps,
                learning_rate=self.config.learning_rate,
                batch_size=self.config.batch_size,
                rng=self.client_rngs[client],
            )
        return model.params

    def _score(self) -> float:
        return self.model.score(self.test_set.features,
                                self.test_set.targets)
