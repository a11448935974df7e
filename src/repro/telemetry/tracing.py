"""Hierarchical span tracing over both clocks (wall and simulated).

A :class:`Span` is one timed region of work — a lifecycle phase, a mined
block, an enclave run, a gossip evaluation interval — carrying a parent id
(nesting is tracked by the :class:`Tracer`'s span stack), a wall-clock
duration from ``time.perf_counter`` (monotonic; wall-of-day clocks can step
backwards under NTP), a sim-clock duration from whichever simulation drives
the run (the marketplace tick or the discrete-event simulator), and free-form
attributes (gas, bytes, message counts).

The tracer is deliberately simple: a stack, because the whole reproduction
is single-threaded; a bounded deque of finished spans for in-process
queries; and an ``on_finish`` hook the marketplace uses to publish every
finished span as a ``span.end`` event on its :class:`EventBus` — which is
how spans reach JSONL traces and the ``python -m repro spans`` renderer.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional

STATUS_OK = "ok"
STATUS_ERROR = "error"

#: How many finished spans a tracer keeps for in-process queries.
MAX_FINISHED_SPANS = 50_000


@dataclass
class Span:
    """One timed, attributed region of work."""

    name: str
    span_id: str
    parent_id: str
    start_wall: float          # time.perf_counter() at entry
    start_sim: float           # sim clock at entry
    attributes: dict[str, Any] = field(default_factory=dict)
    end_wall: Optional[float] = None
    end_sim: Optional[float] = None
    status: str = STATUS_OK
    error: str = ""

    @property
    def wall_duration(self) -> float:
        """Monotonic wall seconds spent inside the span (0 while open)."""
        return (self.end_wall - self.start_wall) if self.end_wall else 0.0

    @property
    def sim_duration(self) -> float:
        """Sim-clock units spent inside the span (0 while open)."""
        return (self.end_sim - self.start_sim) if self.end_sim is not None \
            else 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def to_dict(self) -> dict:
        """The JSON record shape carried by ``span.end`` events."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_sim": self.start_sim,
            "end_sim": self.end_sim,
            "sim_duration": self.sim_duration,
            "wall_ms": self.wall_duration * 1000.0,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "Span":
        """View a :meth:`to_dict` record — the ``span.end`` payload, or a
        sidecar record, whose ``trace_id`` / ``job_id`` / ``attempt``
        become attributes — as a span (trace replay, the tree renderer)."""
        wall_ms = float(record.get("wall_ms", 0.0))
        start_sim = float(record.get("start_sim", 0.0))
        end_sim = record.get("end_sim")
        attributes = dict(record.get("attributes", {}))
        for key in ("trace_id", "job_id", "attempt"):
            if record.get(key):
                attributes.setdefault(key, record[key])
        return cls(
            name=record.get("name", "?"),
            span_id=record.get("span_id", ""),
            parent_id=record.get("parent_id", ""),
            start_wall=0.0,
            start_sim=start_sim,
            attributes=attributes,
            end_wall=wall_ms / 1000.0,
            end_sim=float(end_sim) if end_sim is not None else start_sim,
            status=record.get("status", STATUS_OK),
            error=record.get("error", ""),
        )


class Tracer:
    """Context-managed span creation with automatic parent linkage."""

    def __init__(self, sim_clock: Optional[Callable[[], float]] = None):
        #: Where simulated time comes from.  The marketplace points this at
        #: its lifecycle clock; the gossip trainer at the event simulator.
        self.sim_clock: Callable[[], float] = sim_clock or (lambda: 0.0)
        #: Called with every finished span (the marketplace publishes them
        #: as ``span.end`` events); None means spans stay in-process only.
        self.on_finish: Optional[Callable[[Span], None]] = None
        #: Secondary finish hooks (:meth:`add_exporter`).  Unlike
        #: ``on_finish`` — which ``Marketplace.__init__`` *overwrites* —
        #: exporters compose: the distributed span exporter registers here
        #: so building a marketplace mid-job cannot silently detach it.
        self.exporters: list[Callable[[Span], None]] = []
        self.finished: deque[Span] = deque(maxlen=MAX_FINISHED_SPANS)
        #: Ambient attributes merged under every opened span's own
        #: attributes (the marketplace sets ``session_id`` here for the
        #: duration of an active session, so *all* spans — chain, TEE,
        #: storage — are filterable per session, not just lifecycle ones).
        self.context: dict[str, Any] = {}
        self._stack: list[Span] = []
        self._ids = itertools.count(1)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    @property
    def depth(self) -> int:
        return len(self._stack)

    def current_attribute(self, key: str) -> Any:
        """Innermost value of ``key`` on the open span stack (or context).

        Used to read ambient annotations a caller higher up the stack
        stamped on its span — e.g. the ``fault_kind`` the fault injector
        sets — without threading them through every signature.  Falls back
        to the ambient :attr:`context` map, then None.
        """
        for span in reversed(self._stack):
            if key in span.attributes:
                return span.attributes[key]
        return self.context.get(key)

    def add_exporter(self, exporter: Callable[[Span], None]) -> None:
        """Attach a secondary finish hook (idempotent)."""
        if exporter not in self.exporters:
            self.exporters.append(exporter)

    def remove_exporter(self, exporter: Callable[[Span], None]) -> None:
        """Detach a hook added with :meth:`add_exporter` (tolerant)."""
        try:
            self.exporters.remove(exporter)
        except ValueError:
            pass

    @contextmanager
    def scoped_context(self, **entries: Any) -> Iterator[None]:
        """Set ambient context entries for the ``with`` body only.

        Restores the previous value (or absence) of every entry on exit —
        including when an exception escapes the span stack, which the bare
        ``self.context[key] = value`` idiom this replaces did not guarantee
        at call sites without their own try/finally.
        """
        saved = {key: self.context[key] for key in entries
                 if key in self.context}
        missing = [key for key in entries if key not in self.context]
        self.context.update(entries)
        try:
            yield
        finally:
            self.context.update(saved)
            for key in missing:
                self.context.pop(key, None)

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a child span of the current span for the ``with`` body.

        An exception propagating out marks the span ``status="error"``
        (with the exception text) and re-raises — failed lifecycle phases
        keep their timing but are visibly distinguished in the tree.
        """
        span = Span(
            name=name,
            span_id=f"sp-{next(self._ids):06d}",
            parent_id=self._stack[-1].span_id if self._stack else "",
            start_wall=time.perf_counter(),
            start_sim=float(self.sim_clock()),
            attributes={**self.context, **attributes},
        )
        self._stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.status = STATUS_ERROR
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.end_wall = time.perf_counter()
            span.end_sim = float(self.sim_clock())
            self._stack.pop()
            self.finished.append(span)
            if self.on_finish is not None:
                self.on_finish(span)
            for exporter in tuple(self.exporters):
                exporter(span)

    def reset(self) -> None:
        """Drop finished spans and any dangling stack (test isolation).

        The local id counter restarts too: after a reset, span ids within
        one unit of work (a batch job, a benchmark run) are a deterministic
        function of the work itself, not of process history — which is what
        lets the distributed exporter derive stable cross-process ids from
        them.  Exporters stay attached across resets for the same reason
        per-job ``telemetry.reset()`` must not detach the batch exporter.
        """
        self.finished.clear()
        self._stack.clear()
        self.context.clear()
        self._ids = itertools.count(1)


#: The process-wide default tracer every instrumented subsystem uses.
TRACER = Tracer()


def tracer() -> Tracer:
    """The default tracer (one simulation at a time drives its clocks)."""
    return TRACER


def build_span_tree(spans: list[Span]) -> tuple[list[Span],
                                                dict[str, list[Span]]]:
    """Arrange spans into ``(roots, children_by_parent_id)``.

    A span whose parent is absent from the list is a root — traces filtered
    to one session keep their internal structure.  Children keep insertion
    order (spans finish child-first, so callers usually re-sort by id).
    """
    by_id = {span.span_id: span for span in spans}
    roots: list[Span] = []
    children: dict[str, list[Span]] = {}
    for span in sorted(spans, key=lambda s: s.span_id):
        if span.parent_id and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    return roots, children
