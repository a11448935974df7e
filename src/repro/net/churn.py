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


@dataclass
class ChurnModel:
    """Exponential on/off churn applied to a population of nodes.

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

    def precompute_timeline(
        self, num_nodes: int, rng: np.random.Generator, horizon: float
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Draw every node's on/off timeline up to ``horizon``.

        Returns ``(initial_online, toggle_times)``: the stationary initial
        state per node (online with probability ``availability``, so the
        first cycle is not biased towards online; the exponential session
        lengths are memoryless, so a fresh draw for the current session is
        exactly a mid-cycle start) and, per node, the sorted times
        ``<= horizon`` at which its online flag flips.  The stream is one
        ``random()`` + one ``exponential()`` per node in index order, then
        one ``exponential()`` per toggle in global ``(time, draw-order)``
        order; toggles past ``horizon`` draw nothing.  With
        ``mean_offline_s == 0`` every node is always online and nothing is
        drawn.  ``tests/net/event_oracle.py`` schedules the same stream as
        simulator events.
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
