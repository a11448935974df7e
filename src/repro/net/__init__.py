"""Network substrate: deterministic discrete-event simulation.

Message passing with latency/bandwidth/availability models, overlay
topology builders, and exponential churn — the physical-environment stand-in
for the decentralized-ML experiments.
"""

from repro.net.churn import ChurnModel
from repro.net.simulator import (
    LinkProfile,
    Network,
    NodeState,
    Simulator,
    TrafficStats,
)
from repro.net.topology import (
    assign_latencies,
    neighbors_map,
    random_regular_overlay,
)

__all__ = [
    "ChurnModel",
    "LinkProfile",
    "Network",
    "NodeState",
    "Simulator",
    "TrafficStats",
    "assign_latencies",
    "neighbors_map",
    "random_regular_overlay",
]
