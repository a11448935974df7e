"""Tests for the discrete-event simulator and network transport."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.net.simulator import MEAN_LATENCY_S, Network, Simulator


class Recorder:
    """A message handler that logs what it receives and when."""

    def __init__(self, simulator: Simulator):
        self.simulator = simulator
        self.received: list[tuple[float, str, object]] = []

    def on_message(self, sender: str, message: object) -> None:
        self.received.append((self.simulator.now, sender, message))


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("first"))
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run_until(2.0)
        assert order == ["first", "second"]

    def test_run_until_is_partial(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(2.0)
        assert fired == [1]
        assert sim.now == 2.0
        assert sim.pending_events == 1

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, lambda: fired.append("inner"))

        sim.schedule(1.0, outer)
        sim.run_until(3.0)
        assert fired == ["outer", "inner"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_non_finite_delay_rejected(self):
        # Regression: NaN compares False with everything, so it used to
        # slip past the `< 0` guard and corrupt the event heap; inf events
        # silently burned the run_to_completion budget.
        sim = Simulator()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError):
                sim.schedule(bad, lambda: None)
        assert sim.pending_events == 0

    def test_past_end_time_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_run_to_completion_bounded(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(SimulationError):
            sim.run_to_completion(max_events=100)


class TestNetwork:
    @pytest.fixture
    def net(self):
        sim = Simulator()
        network = Network(sim)
        nodes = {name: Recorder(sim) for name in ("a", "b", "c")}
        for name, node in nodes.items():
            network.attach(name, node, upload_bytes_per_s=1000.0)
        return sim, network, nodes

    def test_delivery(self, net):
        sim, network, nodes = net
        network.send("a", "b", "hello", size_bytes=0)
        sim.run_until(1.0)
        assert nodes["b"].received == [(MEAN_LATENCY_S, "a", "hello")]

    def test_bandwidth_delays_large_messages(self, net):
        sim, network, nodes = net
        network.send("a", "b", "big", size_bytes=500)  # 0.5 s at 1 kB/s
        sim.run_until(1.0)
        time, _, _ = nodes["b"].received[0]
        assert time == pytest.approx(MEAN_LATENCY_S + 0.5)

    def test_link_override(self, net):
        sim, network, nodes = net
        network.set_link("a", "c", 0.5)
        network.send("a", "c", "x", size_bytes=0)
        sim.run_until(1.0)
        assert nodes["c"].received[0][0] == pytest.approx(0.5)

    def test_offline_receiver_drops(self, net):
        sim, network, nodes = net
        network.set_online("b", False)
        assert not network.send("a", "b", "x", size_bytes=0)
        sim.run_until(1.0)
        assert nodes["b"].received == []
        assert network.stats.messages_dropped == 1

    def test_offline_sender_drops(self, net):
        sim, network, nodes = net
        network.set_online("a", False)
        assert not network.send("a", "b", "x", size_bytes=0)

    def test_receiver_going_offline_mid_flight_drops(self, net):
        sim, network, nodes = net
        network.send("a", "b", "x", size_bytes=0)
        network.set_online("b", False)
        sim.run_until(1.0)
        assert nodes["b"].received == []
        assert network.stats.messages_dropped == 1

    def test_traffic_accounting(self, net):
        sim, network, nodes = net
        network.send("a", "b", "x", size_bytes=100)
        network.send("b", "c", "y", size_bytes=50)
        sim.run_until(2.0)
        assert network.stats.messages_delivered == 2
        assert network.stats.bytes_delivered == 150
        assert network.node_state("a").bytes_sent == 100
        assert network.node_state("b").bytes_received == 100
        assert network.node_state("b").bytes_sent == 50

    def test_duplicate_attach_rejected(self, net):
        sim, network, nodes = net
        with pytest.raises(SimulationError):
            network.attach("a", nodes["a"])

    def test_unknown_address_rejected(self, net):
        sim, network, _ = net
        with pytest.raises(SimulationError):
            network.send("a", "ghost", "x", size_bytes=0)


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_cancellable(1.0, lambda: fired.append(1))
        assert handle.cancel()
        sim.run_until(10.0)
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule_cancellable(1.0, lambda: None)
        assert handle.cancel()
        assert not handle.cancel()

    def test_cancel_after_firing_fails(self):
        sim = Simulator()
        handle = sim.schedule_cancellable(1.0, lambda: None)
        sim.run_until(10.0)
        assert not handle.cancel()

    def test_cancelled_events_skip_processed_count(self):
        sim = Simulator()
        sim.schedule_cancellable(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        sim.run_until(10.0)
        assert sim.events_processed == 1

    def test_cancelled_events_skip_completion_budget(self):
        """A swarm of cancelled entries must not trip the event budget."""
        sim = Simulator()
        for _ in range(10):
            sim.schedule_cancellable(1.0, lambda: None).cancel()
        ran = []
        sim.schedule(2.0, lambda: ran.append(1))
        sim.schedule(3.0, lambda: ran.append(2))
        sim.run_to_completion(max_events=2)
        assert ran == [1, 2]

    def test_cancellable_rejects_bad_delays(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_cancellable(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_cancellable(float("nan"), lambda: None)


class TestScheduleBatch:
    def test_lane_fires_in_order(self):
        sim = Simulator()
        seen = []
        sim.schedule_batch([1.0, 2.0, 3.0], seen.append)
        sim.run_until(10.0)
        assert seen == [0, 1, 2]
        assert sim.events_processed == 3

    def test_lane_interleaves_with_scheduled_events(self):
        sim = Simulator()
        order = []
        sim.schedule_batch([1.0, 3.0], lambda i: order.append(f"lane{i}"))
        sim.schedule(2.0, lambda: order.append("solo"))
        sim.run_until(10.0)
        assert order == ["lane0", "solo", "lane1"]

    def test_lane_registered_first_wins_ties(self):
        sim = Simulator()
        order = []
        sim.schedule_batch([1.0], lambda i: order.append("lane"))
        sim.schedule(1.0, lambda: order.append("solo"))
        sim.run_until(10.0)
        assert order == ["lane", "solo"]

    def test_lane_occupies_one_heap_slot(self):
        sim = Simulator()
        sim.schedule_batch([float(t) for t in range(1, 1001)], lambda i: None)
        assert len(sim._heap) == 1
        assert sim.pending_events == 1000
        sim.run_until(2000.0)
        assert sim.pending_events == 0
        assert sim.heap_high_water == 1

    def test_partial_run_leaves_lane_resumable(self):
        sim = Simulator()
        seen = []
        sim.schedule_batch([1.0, 2.0, 3.0], seen.append)
        sim.run_until(1.5)
        assert seen == [0]
        assert sim.pending_events == 2
        sim.run_until(10.0)
        assert seen == [0, 1, 2]

    def test_empty_batch_is_noop(self):
        sim = Simulator()
        sim.schedule_batch([], lambda i: None)
        assert sim.pending_events == 0

    def test_decreasing_times_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_batch([2.0, 1.0], lambda i: None)

    def test_past_times_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_batch([1.0, 2.0], lambda i: None)

    def test_non_finite_times_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_batch([1.0, float("inf")], lambda i: None)


class TestTelemetryGauges:
    def test_heap_high_water_tracks_peak(self):
        sim = Simulator()
        for t in range(1, 6):
            sim.schedule(float(t), lambda: None)
        sim.run_until(10.0)
        assert sim.heap_high_water == 5

    def test_gauges_exported_after_run(self):
        from repro.telemetry.metrics import REGISTRY

        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until(10.0)
        events = REGISTRY.get("pds2_sim_events_processed")
        heap = REGISTRY.get("pds2_sim_heap_high_water")
        assert events is not None and heap is not None
        assert events.samples()[0].value >= 1
        assert heap.samples()[0].value >= 1
