"""Topology builders for the decentralized-ML experiments.

Gossip learning runs over a random regular peer overlay.  These helpers
build that ``networkx`` graph, its peer lists and its per-link latencies.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.errors import SimulationError
from repro.net.simulator import MEAN_LATENCY_S


def random_regular_overlay(num_nodes: int, degree: int,
                           rng: np.random.Generator) -> nx.Graph:
    """A connected random regular graph (the classic gossip overlay).

    Retries until connected; for degree >= 3 this succeeds almost surely in
    a handful of attempts.
    """
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
