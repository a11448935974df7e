"""The discrete-event network: the reference the round loops are checked against.

Production code runs no event heap.  Gossip runs on the flat-array
kernels (:mod:`repro.kernels.gossip_kernel`) and FedAvg on round ticks
(:mod:`repro.ml.federated`); both read churn from
:meth:`repro.net.churn.ChurnModel.precompute_timeline` and compute message
delivery in closed form.  This module keeps the event-driven engine they
replaced:

* events are ``(time, sequence, callback)`` entries; the sequence number
  makes tie-breaking, and so the whole simulation, deterministic;
* :class:`Network` models point-to-point message passing with link
  latency, per-node bandwidth and online/offline state, and charges the
  production transport counters exactly as the round loops do;
* :func:`install_churn` schedules :class:`~repro.net.churn.ChurnModel`'s
  on/off cycle as events, drawing the stream ``precompute_timeline``
  replays.

``tests/kernels/gossip_oracle.py`` (the per-node gossip engine) and
``tests/ml/fedavg_oracle.py`` (the event-driven FedAvg) run on it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Protocol

import numpy as np

from repro.errors import SimulationError
from repro.net.churn import ChurnModel
from repro.net.topology import (
    _MSG_DELIVERED,
    _MSG_DROPPED,
    _MSG_SENT,
    _NET_BYTES_DELIVERED,
    MEAN_LATENCY_S,
)


class Simulator:
    """An event heap with a monotone clock."""

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self.now = 0.0
        self.events_processed = 0
        self.heap_high_water = 0

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq = seq + 1
        return seq

    def _note_heap_size(self) -> None:
        if len(self._heap) > self.heap_high_water:
            self.heap_high_water = len(self._heap)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at ``now + delay``."""
        if not math.isfinite(delay):
            # NaN slips past the `< 0` check below and corrupts the heap
            # invariant (every comparison with NaN is False); inf events
            # can never run.
            raise SimulationError(
                f"event delay must be finite, got {delay!r}"
            )
        if delay < 0:
            raise SimulationError("cannot schedule events in the past")
        # Entries are lists, so a subclass may push list entries of its own
        # (heapq comparisons between tuple and list entries raise).
        heapq.heappush(
            self._heap, [self.now + delay, self._next_seq(), callback]
        )
        self._note_heap_size()

    def run_until(self, end_time: float) -> None:
        """Process events up to and including ``end_time``."""
        if end_time < self.now:
            raise SimulationError("end time is in the past")
        while self._heap and self._heap[0][0] <= end_time:
            time, _, callback = heapq.heappop(self._heap)
            self.now = time
            self.events_processed += 1
            callback()
        self.now = end_time


class MessageHandler(Protocol):
    """Anything that can be attached to the network as a node."""

    def on_message(self, sender: str, message: Any) -> None:
        """Receive one delivered message."""
        ...  # pragma: no cover - protocol definition


@dataclass
class NodeState:
    """Network-facing state of one attached node."""

    handler: MessageHandler
    upload_bytes_per_s: float = 1_250_000.0  # 10 Mbit/s default uplink
    online: bool = True
    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = 0
    messages_dropped: int = 0


@dataclass
class TrafficStats:
    """Network-wide totals for experiment reporting."""

    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_delivered: int = 0


class Network:
    """Point-to-point message passing over a :class:`Simulator`.

    Delivery time = link latency + size / sender uplink bandwidth.  Messages
    to or from offline nodes are dropped silently (UDP-like), which is what
    gossip protocols are designed to tolerate and what breaks naive
    centralized schemes under churn.
    """

    def __init__(self, simulator: Simulator):
        self.simulator = simulator
        self._nodes: dict[str, NodeState] = {}
        self.stats = TrafficStats()

    # -- membership --------------------------------------------------------------

    def attach(self, address: str, handler: MessageHandler,
               upload_bytes_per_s: float = 1_250_000.0) -> None:
        """Register a node under ``address``."""
        if address in self._nodes:
            raise SimulationError(f"address {address!r} already attached")
        self._nodes[address] = NodeState(
            handler=handler, upload_bytes_per_s=upload_bytes_per_s
        )

    def set_online(self, address: str, online: bool) -> None:
        """Churn control: toggle a node's availability."""
        self._node(address).online = online

    def is_online(self, address: str) -> bool:
        return self._node(address).online

    def node_state(self, address: str) -> NodeState:
        """Accounting view of one node."""
        return self._node(address)

    def _node(self, address: str) -> NodeState:
        if address not in self._nodes:
            raise SimulationError(f"unknown address {address!r}")
        return self._nodes[address]

    # -- links ---------------------------------------------------------------------

    def link_latency(self, src: str, dst: str) -> float:
        """One-way latency of a link: :data:`MEAN_LATENCY_S` on every link."""
        return MEAN_LATENCY_S

    # -- transport -------------------------------------------------------------------

    def send(self, src: str, dst: str, message: Any, size_bytes: int) -> bool:
        """Queue a message for delivery; returns False when dropped.

        Drops happen when either endpoint is offline *at send time*; a
        receiver going offline mid-flight also loses the message (checked at
        delivery).
        """
        sender = self._node(src)
        receiver = self._node(dst)
        if size_bytes < 0:
            raise SimulationError("message size must be non-negative")
        if not sender.online or not receiver.online:
            sender.messages_dropped += 1
            self.stats.messages_dropped += 1
            _MSG_DROPPED.inc()
            return False
        transfer_delay = size_bytes / sender.upload_bytes_per_s
        delay = self.link_latency(src, dst) + transfer_delay
        sender.bytes_sent += size_bytes
        sender.messages_sent += 1
        _MSG_SENT.inc()

        def deliver() -> None:
            target = self._nodes.get(dst)
            if target is None or not target.online:
                self.stats.messages_dropped += 1
                _MSG_DROPPED.inc()
                return
            target.bytes_received += size_bytes
            self.stats.messages_delivered += 1
            self.stats.bytes_delivered += size_bytes
            _MSG_DELIVERED.inc()
            _NET_BYTES_DELIVERED.inc(size_bytes)
            target.handler.on_message(src, message)

        self.simulator.schedule(delay, deliver)
        return True


# -- churn as events ---------------------------------------------------------------


def install_churn(model: ChurnModel, simulator: Simulator, network: Network,
                  addresses: list[str], rng: np.random.Generator) -> None:
    """Schedule ``model``'s on/off cycle for every address.

    Each node's *initial* state is drawn from the stationary
    distribution (online with probability ``availability``) and then one
    exponential session length; every toggle that fires draws the next.
    :meth:`~repro.net.churn.ChurnModel.precompute_timeline` replays this
    draw sequence.  With ``mean_offline_s == 0`` nothing is scheduled
    (always online).
    """
    if model.mean_offline_s == 0:
        return

    def schedule_toggle(address: str, online: bool) -> None:
        mean = model.mean_online_s if online else model.mean_offline_s
        duration = float(rng.exponential(mean))

        def toggle() -> None:
            network.set_online(address, not online)
            schedule_toggle(address, not online)

        simulator.schedule(duration, toggle)

    for address in addresses:
        online = bool(rng.random() < model.availability)
        network.set_online(address, online)
        schedule_toggle(address, online)
