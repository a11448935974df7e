"""Structured lifecycle events and the marketplace event bus.

Every observable step of a workload lifecycle — phase transitions, block
mining, attestation checks, enclave launches, data submissions, payouts —
is published as a frozen :class:`LifecycleEvent` on the marketplace
:class:`EventBus`.  Sinks are pluggable: the default in-memory
:class:`RingBufferSink` backs interactive queries and tests and a
:class:`JSONLSink` persists a run for ``python -m repro trace``.

The event trail is the off-chain half of the audit story (DataBright/D2M
structure their markets the same way): each event records the session id,
lifecycle phase, both clocks (wall and simulated), the gas consumed since
the previous chain event, and the acting address, so an auditor can replay
a session and cross-check it against the on-chain history.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Protocol

from repro.errors import TelemetryError
from repro.utils.serialization import append_jsonl, read_jsonl


@dataclass(frozen=True)
class LifecycleEvent:
    """One observable step of a workload lifecycle.

    ``wall_time`` comes from ``time.perf_counter()`` — a monotonic clock,
    so *deltas* between events are meaningful even across NTP steps; it is
    not an absolute time.  ``timestamp`` is the absolute ``time.time()``
    for human-readable JSONL records and must never be subtracted.
    ``gas_delta`` is zero for purely off-chain steps; for chain events it
    is the gas consumed by the step.  ``block_height`` is ``-1`` when the
    event is not tied to a specific block.
    """

    session_id: str
    phase: str
    name: str
    sequence: int
    wall_time: float
    sim_clock: float
    gas_delta: int = 0
    block_height: int = -1
    actor: str = ""
    timestamp: float = 0.0
    data: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Freeze the payload so a published event can never mutate.
        object.__setattr__(self, "data", MappingProxyType(dict(self.data)))

    def to_dict(self) -> dict:
        """JSON-serializable view (the JSONL record format)."""
        return {
            "session_id": self.session_id,
            "phase": self.phase,
            "name": self.name,
            "sequence": self.sequence,
            "wall_time": self.wall_time,
            "sim_clock": self.sim_clock,
            "gas_delta": self.gas_delta,
            "block_height": self.block_height,
            "actor": self.actor,
            "timestamp": self.timestamp,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "LifecycleEvent":
        """Inverse of :meth:`to_dict` (used by the trace replayer)."""
        return cls(
            session_id=record["session_id"],
            phase=record["phase"],
            name=record["name"],
            sequence=int(record["sequence"]),
            wall_time=float(record["wall_time"]),
            sim_clock=float(record["sim_clock"]),
            gas_delta=int(record.get("gas_delta", 0)),
            block_height=int(record.get("block_height", -1)),
            actor=record.get("actor", ""),
            timestamp=float(record.get("timestamp", 0.0)),
            data=record.get("data", {}),
        )


class EventSink(Protocol):
    """Anything that can receive published lifecycle events."""

    def emit(self, event: LifecycleEvent) -> None:
        ...


#: Events the marketplace's in-memory ring keeps.
RING_BUFFER_CAPACITY = 10_000


class RingBufferSink:
    """Keep the most recent :data:`RING_BUFFER_CAPACITY` events in memory
    (the default sink)."""

    def __init__(self):
        self._buffer: deque[LifecycleEvent] = deque(maxlen=RING_BUFFER_CAPACITY)

    def emit(self, event: LifecycleEvent) -> None:
        self._buffer.append(event)

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[LifecycleEvent]:
        return iter(tuple(self._buffer))

    @property
    def events(self) -> tuple[LifecycleEvent, ...]:
        return tuple(self._buffer)

    def for_session(self, session_id: str) -> tuple[LifecycleEvent, ...]:
        """All buffered events of one session, in publication order."""
        return tuple(e for e in self._buffer if e.session_id == session_id)

    def clear(self) -> None:
        self._buffer.clear()


class JSONLSink:
    """Append every event as one JSON line to ``path``, flushed as it is
    written: a session killed mid-run loses at most the line being written
    (``read_jsonl_events`` tolerates that torn tail)."""

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")

    def emit(self, event: LifecycleEvent) -> None:
        append_jsonl(self._handle, event.to_dict())

    def close(self) -> None:
        self._handle.close()

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def __enter__(self) -> "JSONLSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_jsonl_events(path: str) -> list[LifecycleEvent]:
    """Load a JSONL trace file back into events (the ``trace`` command).

    A truncated *final* line — the signature of a writer killed mid-write —
    is dropped silently; corruption anywhere else, or a record that lacks
    a required key, raises :class:`~repro.errors.TelemetryError`, because a
    torn middle means the file was edited, not interrupted.  Keys this
    version does not know are ignored.
    """
    os.stat(path)  # a missing trace is an error, not an empty trace
    events = []
    for number, record in enumerate(read_jsonl(path, TelemetryError), start=1):
        try:
            events.append(LifecycleEvent.from_dict(record))
        except (KeyError, TypeError, ValueError) as exc:
            problem = (f"missing key {exc}" if isinstance(exc, KeyError)
                       else str(exc))
            raise TelemetryError(
                f"record {number} of {path} is not a lifecycle event "
                f"({problem})") from None
    return events


class EventBus:
    """Publish/subscribe fan-out for lifecycle events.

    The bus assigns the global sequence number and both wall clocks —
    ``clock`` (``time.perf_counter``: monotonic, duration-safe) for
    ``wall_time`` and ``abs_clock`` (``time.time``) for the absolute
    ``timestamp`` — callers supply everything else.  Sink failures
    propagate — a broken sink is a configuration error, not something to
    swallow silently.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 abs_clock: Callable[[], float] = time.time):
        self._clock = clock
        self._abs_clock = abs_clock
        self._sinks: list[EventSink] = []
        self._sequence = 0

    def attach(self, sink: EventSink) -> EventSink:
        """Register a sink; returns it for chaining."""
        self._sinks.append(sink)
        return sink

    def detach(self, sink: EventSink) -> None:
        self._sinks.remove(sink)

    @property
    def sinks(self) -> tuple[EventSink, ...]:
        return tuple(self._sinks)

    def emit(self, *, session_id: str, phase: str, name: str,
             sim_clock: float, gas_delta: int = 0, block_height: int = -1,
             actor: str = "", data: Mapping[str, Any] | None = None,
             ) -> LifecycleEvent:
        """Build, stamp, and fan out one event; returns it."""
        self._sequence += 1
        event = LifecycleEvent(
            session_id=session_id,
            phase=phase,
            name=name,
            sequence=self._sequence,
            wall_time=self._clock(),
            timestamp=self._abs_clock(),
            sim_clock=sim_clock,
            gas_delta=gas_delta,
            block_height=block_height,
            actor=actor,
            data=data or {},
        )
        for sink in self._sinks:
            sink.emit(event)
        return event


def phase_wall_times(events: Iterable[LifecycleEvent]) -> dict[str, float]:
    """Wall-clock seconds spent per phase, from started/completed pairs.

    Durations come from ``wall_time`` (monotonic ``perf_counter``), never
    from the absolute ``timestamp`` field — wall-of-day clocks can step
    backwards under NTP and would produce negative phase times.
    """
    started: dict[str, float] = {}
    durations: dict[str, float] = {}
    for event in events:
        if event.name == "phase.started":
            started[event.phase] = event.wall_time
        elif event.name in ("phase.completed", "phase.failed"):
            begin = started.pop(event.phase, None)
            if begin is not None:
                durations[event.phase] = (
                    durations.get(event.phase, 0.0)
                    + (event.wall_time - begin)
                )
    return durations


def phase_gas_totals(events: Iterable[LifecycleEvent]) -> dict[str, int]:
    """Gas consumed per phase, from the events' gas deltas."""
    totals: dict[str, int] = {}
    for event in events:
        if event.gas_delta:
            totals[event.phase] = totals.get(event.phase, 0) + event.gas_delta
    return totals
