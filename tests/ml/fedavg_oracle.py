"""Event-driven FedAvg: the reference the round-tick loop is checked against.

:class:`repro.ml.federated.FederatedTrainer` runs FedAvg as a loop over
round ticks with every message's fate in closed form.  This module runs
the same protocol the direct way: a server and one client object per
partition attached to the discrete-event network of
``tests/net/event_oracle.py``, one simulator callback per round tick and
per message, churn installed as toggle events.  It draws the same
``derive_rng`` streams at the same positions, so
``tests/ml/test_fedavg_differential.py`` holds the two byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.errors import MLError
from repro.ml.datasets import Dataset
from repro.ml.federated import (
    SERVER_UPLOAD_BYTES_PER_S,
    FederatedConfig,
    FederatedResult,
)
from repro.ml.gossip import MESSAGE_OVERHEAD_BYTES, eval_checkpoints
from repro.ml.merge import merge_parameter_vectors
from repro.ml.models import Model
from repro.net.churn import ChurnModel
from repro.utils.rng import derive_rng
from tests.net.event_oracle import Network, Simulator, install_churn

SERVER_ADDRESS = "fed-server"


@dataclass
class _GlobalModelMessage:
    """Server -> client: the current global parameters."""

    params: np.ndarray
    round_number: int

    @property
    def size_bytes(self) -> int:
        return self.params.nbytes + MESSAGE_OVERHEAD_BYTES


@dataclass
class _UpdateMessage:
    """Client -> server: locally trained parameters plus sample count."""

    params: np.ndarray
    samples: int
    round_number: int

    @property
    def size_bytes(self) -> int:
        return self.params.nbytes + MESSAGE_OVERHEAD_BYTES


class FederatedClient:
    """One data-holding client that trains on request."""

    def __init__(self, address: str, model: Model, data: Dataset,
                 config: FederatedConfig, network: Network,
                 rng: np.random.Generator):
        self.address = address
        self.model = model
        self.data = data
        self.config = config
        self.network = network
        self.rng = rng

    def on_message(self, sender: str, message: _GlobalModelMessage) -> None:
        """Receive the global model, train locally, send the update back."""
        self.model.set_params(message.params)
        if len(self.data):
            self.model.train_steps(
                self.data.features, self.data.targets,
                steps=self.config.local_steps,
                learning_rate=self.config.learning_rate,
                batch_size=self.config.batch_size,
                rng=self.rng,
            )
        update = _UpdateMessage(
            params=self.model.params,
            samples=len(self.data),
            round_number=message.round_number,
        )
        self.network.send(self.address, sender, update, update.size_bytes)


class FederatedServer:
    """The coordinator: samples clients, aggregates their updates."""

    def __init__(self, model: Model, config: FederatedConfig,
                 simulator: Simulator, network: Network,
                 rng: np.random.Generator):
        self.model = model
        self.config = config
        self.simulator = simulator
        self.network = network
        self.client_addresses: list[str] = []
        self.rng = rng
        self.round_number = 0
        self.rounds_completed = 0
        self.rounds_empty = 0
        self._inbox: list[_UpdateMessage] = []

    def start(self) -> None:
        """Kick off the periodic round driver."""
        self.simulator.schedule(self.config.round_interval_s, self._round)

    def _round(self) -> None:
        self.simulator.schedule(self.config.round_interval_s, self._round)
        if not self.network.is_online(SERVER_ADDRESS):
            return
        self._aggregate()
        self.round_number += 1
        online = [
            address for address in self.client_addresses
            if self.network.is_online(address)
        ]
        if not online:
            return
        count = max(1, int(round(len(online) * self.config.client_fraction)))
        chosen_idx = self.rng.choice(len(online), size=min(count, len(online)),
                                     replace=False)
        message = _GlobalModelMessage(params=self.model.params,
                                      round_number=self.round_number)
        for index in np.sort(chosen_idx):
            self.network.send(SERVER_ADDRESS, online[int(index)], message,
                              message.size_bytes)

    def _aggregate(self) -> None:
        """Close the previous round: average whatever updates arrived."""
        if not self._inbox:
            if self.round_number > 0:
                self.rounds_empty += 1
            return
        vectors = [update.params for update in self._inbox]
        weights = [float(max(1, update.samples)) for update in self._inbox]
        self.model.set_params(merge_parameter_vectors(vectors, weights))
        self._inbox.clear()
        self.rounds_completed += 1

    def on_message(self, sender: str, message: _UpdateMessage) -> None:
        """Collect a client update for the current round."""
        if message.round_number == self.round_number:
            self._inbox.append(message)
        # Stale updates (from a previous round) are discarded, as in
        # synchronous FedAvg.


class EventFederatedTrainer:
    """FedAvg on the event-driven network; takes
    :class:`~repro.ml.federated.FederatedTrainer`'s arguments."""

    def __init__(self, model_factory: Callable[[], Model],
                 partitions: list[Dataset], test_set: Dataset,
                 config: Optional[FederatedConfig] = None, seed: int = 0,
                 churn: Optional[ChurnModel] = None,
                 server_subject_to_churn: bool = False):
        if len(partitions) < 1:
            raise MLError("federated learning needs at least one client")
        self.config = config if config is not None else FederatedConfig()
        self.test_set = test_set
        self.simulator = Simulator()
        self.network = Network(self.simulator)
        self.server = FederatedServer(
            model=model_factory(), config=self.config,
            simulator=self.simulator, network=self.network,
            rng=derive_rng(seed, "fed-server"),
        )
        self.network.attach(SERVER_ADDRESS, self.server,
                            upload_bytes_per_s=SERVER_UPLOAD_BYTES_PER_S)
        self.clients: list[FederatedClient] = []
        for index, part in enumerate(partitions):
            address = f"fed-client-{index}"
            client = FederatedClient(
                address=address, model=model_factory(), data=part,
                config=self.config, network=self.network,
                rng=derive_rng(seed, f"fed-client-{index}"),
            )
            self.clients.append(client)
            self.network.attach(address, client)
            self.server.client_addresses.append(address)
        if churn is not None:
            churned = [client.address for client in self.clients]
            if server_subject_to_churn:
                churned.append(SERVER_ADDRESS)
            install_churn(churn, self.simulator, self.network, churned,
                          derive_rng(seed, "fed-churn"))

    def run(self, duration_s: float,
            eval_interval_s: float = 50.0) -> FederatedResult:
        """Run FedAvg for ``duration_s`` of simulated time."""
        checkpoints = eval_checkpoints(duration_s, eval_interval_s)
        self.server.start()
        history: list[tuple[float, float]] = []
        for checkpoint in checkpoints:
            self.simulator.run_until(float(checkpoint))
            score = self.server.model.score(self.test_set.features,
                                            self.test_set.targets)
            history.append((float(checkpoint), score))
        server_state = self.network.node_state(SERVER_ADDRESS)
        return FederatedResult(
            history=history,
            final_score=self.server.model.score(self.test_set.features,
                                                self.test_set.targets),
            bytes_delivered=self.network.stats.bytes_delivered,
            messages_delivered=self.network.stats.messages_delivered,
            messages_dropped=self.network.stats.messages_dropped,
            server_bytes=server_state.bytes_sent + server_state.bytes_received,
            rounds_completed=self.server.rounds_completed,
            rounds_empty=self.server.rounds_empty,
        )
