"""Node churn: alternating online/offline sessions.

Section III-C argues gossip learning "can be extended to work in constrained
and highly heterogeneous environments"; experiment E6 stresses both
protocols under churn generated by this model.  Each node alternates
exponentially-distributed online and offline periods, the standard renewal
model for peer availability.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.net.simulator import Network, Simulator


@dataclass
class ChurnModel:
    """Exponential on/off churn applied to a set of addresses.

    ``availability`` is the long-run fraction of time online:
    ``mean_online / (mean_online + mean_offline)``.
    """

    mean_online_s: float
    mean_offline_s: float

    def __post_init__(self) -> None:
        if self.mean_online_s <= 0 or self.mean_offline_s < 0:
            raise SimulationError("churn durations out of range")

    @property
    def availability(self) -> float:
        total = self.mean_online_s + self.mean_offline_s
        return self.mean_online_s / total

    @classmethod
    def from_availability(cls, availability: float,
                          mean_online_s: float = 60.0) -> "ChurnModel":
        """Build a model with a target availability fraction."""
        if not 0 < availability <= 1:
            raise SimulationError("availability must be in (0, 1]")
        if availability == 1.0:
            return cls(mean_online_s=mean_online_s, mean_offline_s=0.0)
        mean_offline = mean_online_s * (1 - availability) / availability
        return cls(mean_online_s=mean_online_s, mean_offline_s=mean_offline)

    def install(self, simulator: Simulator, network: Network,
                addresses: list[str], rng: np.random.Generator) -> None:
        """Schedule the on/off cycle for every address.

        Each node's *initial* state is drawn from the stationary
        distribution — online with probability ``availability`` — instead
        of starting everyone online, which would bias measured
        availability above the model's target for the first cycle.  The
        exponential session lengths are memoryless, so drawing a fresh
        duration for the current session is exactly a mid-cycle start.

        With ``mean_offline_s == 0`` the model is a no-op (always online).
        """
        if self.mean_offline_s == 0:
            return
        for address in addresses:
            online = bool(rng.random() < self.availability)
            network.set_online(address, online)
            if online:
                self._schedule_down(simulator, network, address, rng)
            else:
                self._schedule_up(simulator, network, address, rng)

    def _schedule_down(self, simulator: Simulator, network: Network,
                       address: str, rng: np.random.Generator) -> None:
        online_duration = float(rng.exponential(self.mean_online_s))

        def go_down() -> None:
            network.set_online(address, False)
            self._schedule_up(simulator, network, address, rng)

        simulator.schedule(online_duration, go_down)

    def _schedule_up(self, simulator: Simulator, network: Network,
                     address: str, rng: np.random.Generator) -> None:
        offline_duration = float(rng.exponential(self.mean_offline_s))

        def come_up() -> None:
            network.set_online(address, True)
            self._schedule_down(simulator, network, address, rng)

        simulator.schedule(offline_duration, come_up)

    # -- vectorized replay ------------------------------------------------------

    def precompute_timeline(
        self, num_nodes: int, rng: np.random.Generator, horizon: float
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Replay :meth:`install`'s exact draw sequence without a simulator.

        Returns ``(initial_online, toggle_times)``: the stationary initial
        state per node and, per node, the sorted times ``<= horizon`` at
        which its online flag flips.  The RNG stream is consumed in
        *precisely* the order the event-driven path consumes it — one
        ``random()`` + one ``exponential()`` per node at install, then one
        ``exponential()`` each time a toggle event fires, in global
        ``(time, schedule-order)`` order — so the gossip kernels replaying
        this timeline match the event-driven churn byte-for-byte.  Toggles
        past ``horizon`` never fire in the event-driven path and therefore
        draw nothing here either.
        """
        initial = np.ones(num_nodes, dtype=bool)
        toggles: list[list[float]] = [[] for _ in range(num_nodes)]
        if self.mean_offline_s == 0:
            return initial, [np.empty(0) for _ in range(num_nodes)]
        heap: list[tuple[float, int, int, bool]] = []
        seq = 0
        for index in range(num_nodes):
            online = bool(rng.random() < self.availability)
            initial[index] = online
            mean = self.mean_online_s if online else self.mean_offline_s
            duration = float(rng.exponential(mean))
            heapq.heappush(heap, (duration, seq, index, not online))
            seq += 1
        while heap and heap[0][0] <= horizon:
            time, _, index, state = heapq.heappop(heap)
            toggles[index].append(time)
            mean = self.mean_online_s if state else self.mean_offline_s
            duration = float(rng.exponential(mean))
            heapq.heappush(heap, (time + duration, seq, index, not state))
            seq += 1
        return initial, [np.asarray(times) for times in toggles]
