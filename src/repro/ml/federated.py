"""Federated learning (FedAvg) — the centralized baseline of Section III-C.

McMahan et al.'s FedAvg over the same discrete-event network the gossip
implementation uses: a coordinator samples clients each round, broadcasts
the global model, clients train locally and upload updates, and the server
replaces the global model with the sample-weighted average.

The implementation deliberately exposes the failure modes the paper
attributes to centralization: all traffic transits the server's uplink
(bandwidth bottleneck), a round only aggregates the updates that actually
arrive (churn sensitivity), and the server is a single point of failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.errors import MLError
from repro.ml.datasets import Dataset
from repro.ml.gossip import MESSAGE_OVERHEAD_BYTES, eval_checkpoints
from repro.ml.merge import merge_parameter_vectors
from repro.ml.models import Model
from repro.net.churn import ChurnModel
from repro.net.simulator import Network, Simulator
from repro.utils.rng import derive_rng

SERVER_ADDRESS = "fed-server"
#: The coordinator's uplink, 100 Mbit/s — ten times a client's default.
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
        if self.round_interval_s <= 0:
            raise MLError("round interval must be positive")
        if not 0 < self.client_fraction <= 1:
            raise MLError("client fraction must be in (0, 1]")
        if self.local_steps < 1:
            raise MLError("local steps must be >= 1")


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
        self.rounds_participated = 0

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
        self.rounds_participated += 1
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
                 client_addresses: list[str], rng: np.random.Generator):
        self.model = model
        self.config = config
        self.simulator = simulator
        self.network = network
        self.client_addresses = list(client_addresses)
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
    """Builds and runs a FedAvg deployment on the simulated network."""

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
            client_addresses=[], rng=derive_rng(seed, "fed-server"),
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
            churn.install(self.simulator, self.network, churned,
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
