"""Topology and link model for the decentralized-ML experiments.

Gossip learning runs over a random regular peer overlay.  These helpers
build that ``networkx`` graph, its peer lists and its per-link latencies,
and hold what the gossip kernels and FedAvg share about a link: the mean
latency and the transport counters every message is charged to.  Only
:func:`random_regular_overlay` imports ``networkx``: a marketplace never
loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.telemetry import metrics as _tm

if TYPE_CHECKING:
    import networkx as nx

#: Mean one-way link latency: what an unprofiled link costs, and the mean
#: of the per-edge lognormal draws below.
MEAN_LATENCY_S = 0.05

# Transport counters, pre-resolved per outcome.  A message is ``sent`` when
# both endpoints are online at send time, else ``dropped``; a sent message
# that lands before the run ends is ``delivered``, or ``dropped`` when its
# receiver is offline on arrival.
_NET_MESSAGES = _tm.counter(
    "pds2_net_messages_total", "Messages by transport outcome",
    labelnames=("outcome",),
)
_MSG_SENT = _NET_MESSAGES.labels(outcome="sent")
_MSG_DELIVERED = _NET_MESSAGES.labels(outcome="delivered")
_MSG_DROPPED = _NET_MESSAGES.labels(outcome="dropped")
_NET_BYTES_DELIVERED = _tm.counter(
    "pds2_net_bytes_delivered_total", "Payload bytes delivered to handlers"
)


def random_regular_overlay(num_nodes: int, degree: int,
                           rng: np.random.Generator) -> nx.Graph:
    """A connected random regular graph (the classic gossip overlay).

    Retries until connected; for degree >= 3 this succeeds almost surely in
    a handful of attempts.
    """
    import networkx as nx

    if num_nodes <= degree:
        raise SimulationError("need more nodes than the overlay degree")
    for _ in range(100):
        seed = int(rng.integers(0, 2**31 - 1))
        graph = nx.random_regular_graph(degree, num_nodes, seed=seed)
        if nx.is_connected(graph):
            return graph
    raise SimulationError("failed to build a connected regular overlay")


#: Relative spread (lognormal sigma) of the per-edge latency draws.
LATENCY_JITTER = 0.5


def edge_latencies(graph: nx.Graph, rng: np.random.Generator,
                   ) -> dict[tuple[int, int], float]:
    """Draw one symmetric latency per edge of ``graph``.

    Latencies are lognormal around :data:`MEAN_LATENCY_S` with relative
    spread :data:`LATENCY_JITTER`.  Draw order follows ``graph.edges``
    iteration, which is deterministic for a deterministically built graph;
    the gossip kernels and their per-node test oracle both consume this
    exact stream.
    """
    return {
        (u, v): float(MEAN_LATENCY_S
                      * rng.lognormal(mean=0.0, sigma=LATENCY_JITTER))
        for u, v in graph.edges
    }


def neighbors_map(graph: nx.Graph, address_of) -> dict[str, list[str]]:
    """Address-keyed adjacency lists (each node's gossip peer set)."""
    return {
        address_of(node): sorted(address_of(peer) for peer in graph[node])
        for node in graph.nodes
    }
