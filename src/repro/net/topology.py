"""Topology builders for the decentralized-ML experiments.

Gossip learning runs over a peer sampling overlay; federated learning over a
star centered on the coordinator.  These helpers build the corresponding
``networkx`` graphs and assign per-link latencies so both protocols run on
identical network conditions — the fairness requirement of experiment E5.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.errors import SimulationError
from repro.net.simulator import MEAN_LATENCY_S, Network


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


def small_world_overlay(num_nodes: int, k: int, rewire_p: float,
                        rng: np.random.Generator) -> nx.Graph:
    """Watts-Strogatz small-world overlay (clustered edge networks)."""
    seed = int(rng.integers(0, 2**31 - 1))
    graph = nx.connected_watts_strogatz_graph(num_nodes, k, rewire_p,
                                              seed=seed)
    return graph


def star_topology(num_clients: int) -> nx.Graph:
    """A star: node 0 is the federated server, 1..n are clients."""
    return nx.star_graph(num_clients)


def full_mesh(num_nodes: int) -> nx.Graph:
    """Complete graph: every pair connected (small SMC committees)."""
    return nx.complete_graph(num_nodes)


#: Relative spread (lognormal sigma) of the per-edge latency draws.
LATENCY_JITTER = 0.5


def edge_latencies(graph: nx.Graph, rng: np.random.Generator,
                   ) -> dict[tuple[int, int], float]:
    """Draw one symmetric latency per edge of ``graph``.

    Latencies are lognormal around :data:`MEAN_LATENCY_S` with relative
    spread :data:`LATENCY_JITTER`.  Draw order follows ``graph.edges`` iteration, which is
    deterministic for a deterministically built graph — the object engine
    and the vectorized kernel engine both consume this exact stream, which
    is what keeps their simulations byte-identical.
    """
    return {
        (u, v): float(MEAN_LATENCY_S
                      * rng.lognormal(mean=0.0, sigma=LATENCY_JITTER))
        for u, v in graph.edges
    }


def assign_latencies(network: Network, graph: nx.Graph,
                     address_of, rng: np.random.Generator) -> None:
    """Draw a symmetric latency for every edge of ``graph``.

    The same value is set in both directions.  ``address_of`` maps graph
    node ids to network addresses.  Draws delegate to
    :func:`edge_latencies` so both gossip engines see identical links.
    """
    for (u, v), latency in edge_latencies(graph, rng).items():
        network.set_link(address_of(u), address_of(v), latency)
        network.set_link(address_of(v), address_of(u), latency)


def neighbors_map(graph: nx.Graph, address_of) -> dict[str, list[str]]:
    """Address-keyed adjacency lists (each node's gossip peer set)."""
    return {
        address_of(node): sorted(address_of(peer) for peer in graph[node])
        for node in graph.nodes
    }
