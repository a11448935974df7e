"""Deterministic discrete-event network simulator.

All decentralized-ML experiments (E5, E6) run on this substrate.  It is a
classic event-heap simulator:

* events are ``(time, sequence, callback)`` tuples; the sequence number makes
  tie-breaking — and therefore the whole simulation — fully deterministic;
* :class:`Network` models point-to-point message passing with per-link
  latency, per-node bandwidth and online/offline state;
* every delivered message is charged to traffic counters, giving the
  communication-cost axis of the gossip-vs-federated comparison.

Two fast paths keep the heap small for vectorized experiments:

* :meth:`Simulator.schedule_batch` registers a whole pre-sorted timeline of
  events (one *lane*) while holding only the lane head in the heap.  Sequence
  numbers for the entire lane are allocated contiguously up front, so
  tie-breaking against individually scheduled events stays deterministic.
* :meth:`Simulator.schedule_cancellable` returns an :class:`EventHandle`;
  cancelled entries stay in the heap but are skipped on pop without counting
  against ``events_processed`` or the :meth:`run_to_completion` budget.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Protocol, Sequence

from repro.errors import SimulationError
from repro.telemetry import metrics as _tm

# Transport counters, pre-resolved per outcome: send() is the hottest
# non-numeric loop in the gossip experiments.
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

# Simulator observability (satellite of the kernels PR): both gauges are
# refreshed when a run loop returns, so after any experiment the registry
# reflects the last simulator that ran.
_EVENTS_PROCESSED = _tm.gauge(
    "pds2_sim_events_processed",
    "Events executed by the most recent simulator run loop",
)
_HEAP_HIGH_WATER = _tm.gauge(
    "pds2_sim_heap_high_water",
    "Peak event-heap size of the most recent simulator run loop",
)


class EventHandle:
    """Cancellation handle returned by :meth:`Simulator.schedule_cancellable`.

    Cancellation is O(1): the heap entry's callback slot is nulled and the
    stale entry is discarded lazily when it reaches the top of the heap —
    without counting as a processed event.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    def cancel(self) -> bool:
        """Cancel the event; returns False when it already ran/was cancelled."""
        if self._entry[2] is None:
            return False
        self._entry[2] = None
        return True

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None


class _EventLane:
    """A pre-sorted timeline of events holding one heap slot at a time.

    Created by :meth:`Simulator.schedule_batch`.  The lane keeps its own
    position cursor; firing the head re-pushes the next entry with its
    pre-allocated sequence number before running the callback, so events the
    callback schedules at the same instant still order after the lane.
    """

    __slots__ = ("_sim", "_times", "_fn", "_seq0", "_pos")

    def __init__(self, sim: "Simulator", times: list[float],
                 fn: Callable[[int], None], seq0: int) -> None:
        self._sim = sim
        self._times = times
        self._fn = fn
        self._seq0 = seq0
        self._pos = 0

    def __call__(self) -> None:
        pos = self._pos
        self._pos = pos + 1
        if self._pos < len(self._times):
            heapq.heappush(
                self._sim._heap,
                [self._times[self._pos], self._seq0 + self._pos, self],
            )
            self._sim._lane_backlog -= 1
        self._fn(pos)

    @property
    def remaining(self) -> int:
        return len(self._times) - self._pos


class Simulator:
    """An event heap with a monotone clock."""

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self.now = 0.0
        self.events_processed = 0
        self.heap_high_water = 0
        self._lane_backlog = 0  # lane events not yet holding a heap slot

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
            # can never run but burn the run_to_completion budget.
            raise SimulationError(
                f"event delay must be finite, got {delay!r}"
            )
        if delay < 0:
            raise SimulationError("cannot schedule events in the past")
        # Entries are lists (not tuples) so every heap element has the same
        # type — heapq comparisons between mixed tuple/list entries raise —
        # and so cancellable entries can null their callback slot in place.
        heapq.heappush(
            self._heap, [self.now + delay, self._next_seq(), callback]
        )
        self._note_heap_size()

    def schedule_cancellable(self, delay: float,
                             callback: Callable[[], None]) -> EventHandle:
        """Like :meth:`schedule`, but returns a cancellation handle.

        A cancelled entry is skipped when popped: it does not run, does not
        increment ``events_processed``, and does not count against the
        :meth:`run_to_completion` event budget.
        """
        if not math.isfinite(delay):
            raise SimulationError(
                f"event delay must be finite, got {delay!r}"
            )
        if delay < 0:
            raise SimulationError("cannot schedule events in the past")
        entry = [self.now + delay, self._next_seq(), callback]
        heapq.heappush(self._heap, entry)
        self._note_heap_size()
        return EventHandle(entry)

    def schedule_batch(self, times: Sequence[float],
                       fn: Callable[[int], None]) -> None:
        """Register a whole timeline of events as one heap *lane*.

        ``times`` are **absolute** simulation times, non-decreasing and
        ``>= now``; ``fn(i)`` runs at ``times[i]``.  Only the lane head
        occupies a heap slot, so a million-event timeline costs one heap
        entry.  Sequence numbers for every lane event are allocated
        contiguously at registration, keeping same-time tie-breaking against
        later individually-scheduled events deterministic (the lane, being
        registered first, wins).
        """
        times = [float(t) for t in times]
        if not times:
            return
        previous = self.now
        for t in times:
            if not math.isfinite(t):
                raise SimulationError(f"event time must be finite, got {t!r}")
            if t < previous:
                raise SimulationError(
                    "batch times must be non-decreasing and not in the past"
                )
            previous = t
        seq0 = self._seq
        self._seq = seq0 + len(times)
        lane = _EventLane(self, times, fn, seq0)
        heapq.heappush(self._heap, [times[0], seq0, lane])
        self._lane_backlog += len(times) - 1
        self._note_heap_size()

    def run_until(self, end_time: float) -> None:
        """Process events up to and including ``end_time``."""
        if end_time < self.now:
            raise SimulationError("end time is in the past")
        while self._heap and self._heap[0][0] <= end_time:
            entry = heapq.heappop(self._heap)
            time, _, callback = entry
            if callback is None:  # cancelled entry: discard silently
                continue
            entry[2] = None  # fired: a late cancel() must report failure
            self.now = time
            self.events_processed += 1
            callback()
        self.now = end_time
        self._export_gauges()

    def run_to_completion(self, max_events: int = 1_000_000) -> None:
        """Drain the event heap (bounded to catch runaway schedules).

        Cancelled entries are discarded without charging the budget — only
        events that actually run count toward ``max_events``.
        """
        processed = 0
        while self._heap:
            entry = heapq.heappop(self._heap)
            time, _, callback = entry
            if callback is None:
                continue
            if processed >= max_events:
                raise SimulationError("event budget exhausted; likely a loop")
            entry[2] = None
            self.now = time
            self.events_processed += 1
            processed += 1
            callback()
        self._export_gauges()

    def _export_gauges(self) -> None:
        _EVENTS_PROCESSED.set(self.events_processed)
        _HEAP_HIGH_WATER.set(self.heap_high_water)

    @property
    def pending_events(self) -> int:
        """Events not yet run: heap entries plus queued lane events.

        Cancelled-but-unpopped entries are still counted (cancellation is
        lazy); the count is an upper bound in their presence.
        """
        return len(self._heap) + self._lane_backlog


class MessageHandler(Protocol):
    """Anything that can be attached to the network as a node."""

    def on_message(self, sender: str, message: Any) -> None:
        """Receive one delivered message."""
        ...  # pragma: no cover - protocol definition


@dataclass
class LinkProfile:
    """Per-link latency; per-node bandwidth lives on :class:`NodeState`."""

    latency_s: float = 0.05


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


#: Mean one-way link latency: what an unprofiled link costs, and the mean
#: of the per-edge lognormal draws in :mod:`repro.net.topology`.
MEAN_LATENCY_S = 0.05


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
        self._links: dict[tuple[str, str], LinkProfile] = {}
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

    @property
    def addresses(self) -> list[str]:
        return list(self._nodes)

    # -- links ---------------------------------------------------------------------

    def set_link(self, src: str, dst: str, latency_s: float) -> None:
        """Override the latency of one directed link."""
        if latency_s < 0:
            raise SimulationError("latency must be non-negative")
        self._links[(src, dst)] = LinkProfile(latency_s=latency_s)

    def link_latency(self, src: str, dst: str) -> float:
        profile = self._links.get((src, dst))
        return profile.latency_s if profile else MEAN_LATENCY_S

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
