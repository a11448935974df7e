"""Tests for topology builders and the churn model."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.errors import SimulationError
from repro.net.churn import ChurnModel
from repro.net.topology import neighbors_map, random_regular_overlay
from tests.kernels.gossip_oracle import LinkNetwork, assign_latencies
from tests.net.event_oracle import Network, Simulator, install_churn


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

    def test_neighbors_map(self, rng):
        graph = random_regular_overlay(10, 3, rng)
        mapping = neighbors_map(graph, lambda i: f"node-{i}")
        assert len(mapping) == 10
        assert all(len(peers) == 3 for peers in mapping.values())

    def test_assign_latencies_symmetric(self, rng):
        sim = Simulator()
        network = LinkNetwork(sim)
        graph = nx.complete_graph(4)
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
        install_churn(model, sim, network, ["a"], rng)
        sim.run_until(1e6)
        assert sim.events_processed == 0

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
        install_churn(model, sim, network, addresses, rng)
        saw_offline = False
        saw_online = False
        for end in range(10, 200, 10):
            sim.run_until(float(end))
            online = sum(network.is_online(a) for a in addresses)
            saw_offline = saw_offline or online < len(addresses)
            saw_online = saw_online or online > 0
        assert saw_offline and saw_online

    def test_initial_state_drawn_from_stationary_distribution(self, rng):
        # Regression: churn used to start every node online, which
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
        install_churn(model, sim, network, addresses, rng)
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
        install_churn(model, sim, network, addresses, rng)
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
        install_churn(model, sim, network, addresses, rng)
        samples = []
        for end in range(50, 2000, 50):
            sim.run_until(float(end))
            samples.append(
                sum(network.is_online(a) for a in addresses) / len(addresses)
            )
        mean_availability = sum(samples) / len(samples)
        assert abs(mean_availability - target) < 0.12


class _TogglingNetwork(Network):
    """Records every churn toggle as ``(time, address)``."""

    def __init__(self, simulator: Simulator):
        super().__init__(simulator)
        self.toggles: list[tuple[float, str]] = []

    def set_online(self, address: str, online: bool) -> None:
        if self.is_online(address) != online:
            self.toggles.append((self.simulator.now, address))
        super().set_online(address, online)


class TestTimelineReplaysEventChurn:
    """``precompute_timeline`` draws what the event-driven churn draws."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("availability", [0.2, 0.5, 0.9])
    def test_same_initial_states_and_toggles(self, seed, availability):
        model = ChurnModel.from_availability(availability, mean_online_s=7.0)
        horizon = 120.0
        sim = Simulator()
        network = _TogglingNetwork(sim)
        addresses = [f"n{i}" for i in range(12)]
        for address in addresses:
            network.attach(address, _Sink())
        install_churn(model, sim, network, addresses,
                      np.random.default_rng(seed))
        initial = [network.is_online(a) for a in addresses]
        network.toggles.clear()   # install's own initial-state writes
        sim.run_until(horizon)

        states, toggles = model.precompute_timeline(
            len(addresses), np.random.default_rng(seed), horizon)
        assert states.tolist() == initial
        for index, address in enumerate(addresses):
            expected = [t for t, who in network.toggles if who == address]
            assert toggles[index].tolist() == expected
        assert sum(len(t) for t in toggles) == sim.events_processed > 0

    def test_full_availability_draws_nothing(self):
        rng = np.random.default_rng(0)
        states, toggles = ChurnModel.from_availability(
            1.0).precompute_timeline(3, rng, 100.0)
        assert states.all() and all(len(t) == 0 for t in toggles)
        assert rng.random() == np.random.default_rng(0).random()
