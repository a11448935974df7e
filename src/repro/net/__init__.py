"""Network substrate: deterministic discrete-event simulation.

Message passing with latency/bandwidth/availability models, overlay
topology builders, and exponential churn — the physical-environment stand-in
for the decentralized-ML experiments.
"""

from repro.net.churn import ChurnModel
from repro.net.simulator import (
    Network,
    NodeState,
    Simulator,
    TrafficStats,
)
from repro.net.topology import (
    neighbors_map,
    random_regular_overlay,
)

__all__ = [
    "ChurnModel",
    "Network",
    "NodeState",
    "Simulator",
    "TrafficStats",
    "neighbors_map",
    "random_regular_overlay",
]
