"""Tests for topology builders and the churn model."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import SimulationError
from repro.net.churn import ChurnModel
from repro.net.simulator import Network, Simulator
from repro.net.topology import (
    assign_latencies,
    full_mesh,
    neighbors_map,
    random_regular_overlay,
    small_world_overlay,
    star_topology,
)


class _Sink:
    def on_message(self, sender, message):
        pass


class TestTopologies:
    def test_regular_overlay_properties(self, rng):
        graph = random_regular_overlay(20, 4, rng)
        assert nx.is_connected(graph)
        assert all(degree == 4 for _, degree in graph.degree)

    def test_regular_overlay_needs_enough_nodes(self, rng):
        with pytest.raises(SimulationError):
            random_regular_overlay(4, 4, rng)

    def test_small_world_connected(self, rng):
        graph = small_world_overlay(20, 4, 0.3, rng)
        assert nx.is_connected(graph)

    def test_star_shape(self):
        graph = star_topology(5)
        assert graph.degree[0] == 5
        assert all(graph.degree[i] == 1 for i in range(1, 6))

    def test_full_mesh(self):
        graph = full_mesh(4)
        assert graph.number_of_edges() == 6

    def test_neighbors_map(self, rng):
        graph = random_regular_overlay(10, 3, rng)
        mapping = neighbors_map(graph, lambda i: f"node-{i}")
        assert len(mapping) == 10
        assert all(len(peers) == 3 for peers in mapping.values())

    def test_assign_latencies_symmetric(self, rng):
        sim = Simulator()
        network = Network(sim)
        graph = full_mesh(4)
        for index in range(4):
            network.attach(f"n{index}", _Sink())
        assign_latencies(network, graph, lambda i: f"n{i}", rng)
        for u, v in graph.edges:
            assert network.link_latency(f"n{u}", f"n{v}") == \
                network.link_latency(f"n{v}", f"n{u}")
            assert network.link_latency(f"n{u}", f"n{v}") > 0


class TestChurn:
    def test_availability_formula(self):
        model = ChurnModel(mean_online_s=30, mean_offline_s=10)
        assert model.availability == pytest.approx(0.75)

    def test_from_availability(self):
        model = ChurnModel.from_availability(0.5, mean_online_s=60)
        assert model.mean_offline_s == pytest.approx(60)
        assert model.availability == pytest.approx(0.5)

    def test_full_availability_is_noop(self, rng):
        model = ChurnModel.from_availability(1.0)
        sim = Simulator()
        network = Network(sim)
        network.attach("a", _Sink())
        model.install(sim, network, ["a"], rng)
        assert sim.pending_events == 0

    def test_invalid_availability_rejected(self):
        with pytest.raises(SimulationError):
            ChurnModel.from_availability(0.0)
        with pytest.raises(SimulationError):
            ChurnModel.from_availability(1.5)

    def test_nodes_cycle_on_and_off(self, rng):
        model = ChurnModel(mean_online_s=10, mean_offline_s=10)
        sim = Simulator()
        network = Network(sim)
        addresses = [f"n{i}" for i in range(20)]
        for address in addresses:
            network.attach(address, _Sink())
        model.install(sim, network, addresses, rng)
        saw_offline = False
        saw_online = False
        for end in range(10, 200, 10):
            sim.run_until(float(end))
            online = sum(network.is_online(a) for a in addresses)
            saw_offline = saw_offline or online < len(addresses)
            saw_online = saw_online or online > 0
        assert saw_offline and saw_online

    def test_initial_state_drawn_from_stationary_distribution(self, rng):
        # Regression: install() used to start every node online, which
        # biased measured availability above the target for the whole
        # first on-cycle.  The initial state is now a Bernoulli draw at
        # the model's availability.
        target = 0.6
        model = ChurnModel.from_availability(target, mean_online_s=60)
        sim = Simulator()
        network = Network(sim)
        addresses = [f"n{i}" for i in range(400)]
        for address in addresses:
            network.attach(address, _Sink())
        model.install(sim, network, addresses, rng)
        online = sum(network.is_online(a) for a in addresses)
        assert abs(online / len(addresses) - target) < 0.1

    def test_short_window_availability_matches_target(self, rng):
        # The stationary start means even a window much shorter than one
        # mean on-cycle measures the target availability, not ~1.0.
        target = 0.5
        model = ChurnModel.from_availability(target, mean_online_s=100)
        sim = Simulator()
        network = Network(sim)
        addresses = [f"n{i}" for i in range(300)]
        for address in addresses:
            network.attach(address, _Sink())
        model.install(sim, network, addresses, rng)
        samples = []
        for end in range(2, 22, 2):  # 20 s << mean_online_s == 100 s
            sim.run_until(float(end))
            samples.append(
                sum(network.is_online(a) for a in addresses) / len(addresses)
            )
        mean_availability = sum(samples) / len(samples)
        assert abs(mean_availability - target) < 0.1

    def test_long_run_availability_close_to_target(self, rng):
        target = 0.6
        model = ChurnModel.from_availability(target, mean_online_s=5)
        sim = Simulator()
        network = Network(sim)
        addresses = [f"n{i}" for i in range(50)]
        for address in addresses:
            network.attach(address, _Sink())
        model.install(sim, network, addresses, rng)
        samples = []
        for end in range(50, 2000, 50):
            sim.run_until(float(end))
            samples.append(
                sum(network.is_online(a) for a in addresses) / len(addresses)
            )
        mean_availability = sum(samples) / len(samples)
        assert abs(mean_availability - target) < 0.12
