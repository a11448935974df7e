"""Network substrate: the link, overlay and churn models.

Overlay topology builders, the mean link latency and transport counters
every message is charged to, and exponential churn precomputed as per-node
on/off timelines: the physical-environment stand-in for the
decentralized-ML experiments.  Gossip and FedAvg compute each message's
fate in closed form from these; no event heap runs.
"""

from repro.net.churn import ChurnModel
from repro.net.topology import (
    MEAN_LATENCY_S,
    neighbors_map,
    random_regular_overlay,
)

__all__ = [
    "ChurnModel",
    "MEAN_LATENCY_S",
    "neighbors_map",
    "random_regular_overlay",
]
