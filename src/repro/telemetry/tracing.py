"""Hierarchical span tracing over both clocks (wall and simulated).

A :class:`Span` is one timed region of work — a lifecycle phase, a mined
block, an enclave run, a gossip evaluation interval — carrying a parent id
(nesting is tracked by the :class:`Tracer`'s span stack), a wall-clock
duration from ``time.perf_counter`` (monotonic; wall-of-day clocks can step
backwards under NTP), a sim-clock duration from whichever simulation drives
the run (the marketplace tick), and free-form attributes (gas, bytes,
message counts).

The tracer is deliberately simple: a stack, because the whole reproduction
is single-threaded (a session that suspends brings its own,
:meth:`Tracer.installed` on every resume), and a :class:`SpanScope` each
marketplace installs while it runs: its sim clock, its last
:data:`KEPT_SPANS` finished spans (a forensic bundle's window) and its
:class:`EventBus`, where every finished span becomes a ``span.end`` event —
how spans reach a run's ``events.jsonl`` and ``python -m repro spans``.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional

from repro.errors import TelemetryError

STATUS_OK = "ok"
STATUS_ERROR = "error"

#: How many finished spans a tracer keeps: the window a chain auditor's
#: forensic bundle captures (sinks and exporters see every span).
KEPT_SPANS = 25


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

    def fail(self, exc: BaseException) -> None:
        """Mark the span ``status="error"`` with ``exc``'s type and text."""
        self.status = STATUS_ERROR
        self.error = f"{type(exc).__name__}: {exc}"

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
        become attributes — as a span (trace replay, the tree renderer);
        a field of the wrong type raises :class:`TelemetryError` naming it."""
        if not isinstance(record, Mapping):
            raise TelemetryError(f"span record is not an object: {record!r}")

        def read(key: str, default: Any, kind: type) -> Any:
            value = record.get(key)
            value = default if value is None else value
            try:
                if kind is float:
                    return float(value)
                if isinstance(value, kind):
                    return value
            except (TypeError, ValueError):
                pass
            raise TelemetryError(f"span record field {key!r} is not a "
                                 f"{kind.__name__}: {value!r}")

        start_sim = read("start_sim", 0.0, float)
        attributes = dict(read("attributes", {}, Mapping))
        for key in ("trace_id", "job_id", "attempt"):
            if record.get(key):
                attributes.setdefault(key, record[key])
        return cls(
            name=read("name", "?", str),
            span_id=read("span_id", "", str),
            parent_id=read("parent_id", "", str),
            start_wall=0.0,
            start_sim=start_sim,
            attributes=attributes,
            end_wall=read("wall_ms", 0.0, float) / 1000.0,
            end_sim=read("end_sim", start_sim, float),
            status=read("status", STATUS_OK, str),
            error=read("error", "", str),
        )


@dataclass
class SpanScope:
    """Where spans read sim time, the window of finished spans kept, and
    where events go — a finished span's ``span.end``, and what the layers
    report (``emit(name, actor=, data=)``): the tracer's own, or a
    marketplace's while it runs (its clock, its bus, its resumed session)."""

    clock: Callable[[], float]
    finished: deque[Span]
    emit: Callable[..., Any]


class Tracer:
    """Context-managed span creation with automatic parent linkage."""

    def __init__(self, sim_clock: Optional[Callable[[], float]] = None):
        #: The installed scope (:meth:`scoped`); outside any marketplace the
        #: tracer's own, which reads ``sim_clock`` and emits nowhere.
        self.scope = SpanScope(sim_clock or (lambda: 0.0),
                               deque(maxlen=KEPT_SPANS), lambda *_, **__: None)
        #: Called with every finished span: it emits it in the installed
        #: scope as a ``span.end`` event.
        self.on_finish: Optional[Callable[[Span], None]] = \
            lambda span: self.scope.emit("span.end", data=span.to_dict())
        #: Secondary finish hooks (:meth:`add_exporter`): the distributed
        #: span exporter registers here, whichever scope is installed.
        self.exporters: list[Callable[[Span], None]] = []
        #: Ambient attributes merged under every opened span's own (a
        #: session's carry its ``session_id``: *all* its spans — chain, TEE,
        #: storage — are filterable per session).
        self.context: dict[str, Any] = {}
        self._stack: list[Span] = []
        self._ids = itertools.count(1)
        #: Open span id -> the latest sim end among its finished children.
        self._reach: dict[str, float] = {}

    @property
    def finished(self) -> deque[Span]:
        """The installed scope's last :data:`KEPT_SPANS` finished spans."""
        return self.scope.finished

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

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

    def branch(self, **entries: Any) -> tuple[list[Span], dict[str, Any]]:
        """A span stack and context of their own, from the current ones plus
        ``entries``, for work that suspends (a session awaiting a block)."""
        return list(self._stack), {**self.context, **entries}

    @contextmanager
    def installed(self, stack: list[Span],
                  context: dict[str, Any]) -> Iterator[None]:
        """Run the ``with`` body on a :meth:`branch`: its spans nest under
        that stack's open spans; the previous ones come back on exit."""
        saved = self._stack, self.context
        self._stack, self.context = stack, context
        try:
            yield
        finally:
            self._stack, self.context = saved

    @contextmanager
    def scoped(self, scope: SpanScope) -> Iterator[None]:
        """Run the ``with`` body in ``scope``: its spans read that clock and
        are kept there, its events go there; the previous scope comes back."""
        saved, self.scope = self.scope, scope
        try:
            yield
        finally:
            self.scope = saved

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a child span of the current span for the ``with`` body.

        An exception propagating out marks the span failed
        (:meth:`Span.fail`) and re-raises; a caller that handles a failure
        itself calls :meth:`Span.fail` — a failed lifecycle phase keeps its
        timing but is visibly distinguished in the tree.
        """
        span = Span(
            name=name,
            span_id=f"sp-{next(self._ids):06d}",
            parent_id=self._stack[-1].span_id if self._stack else "",
            start_wall=time.perf_counter(),
            start_sim=float(self.scope.clock()),
            attributes={**self.context, **attributes},
        )
        self._stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.fail(exc)
            raise
        finally:
            span.end_wall = time.perf_counter()
            # A span's sim window covers its children's, also in another
            # scope: a batch job's ends where its market's session did.
            end = float(self.scope.clock())
            span.end_sim = max(end, self._reach.pop(span.span_id, end))
            self._stack.pop()
            if self._stack:
                parent = self._stack[-1].span_id
                self._reach[parent] = max(
                    span.end_sim, self._reach.get(parent, span.end_sim))
            self.scope.finished.append(span)
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
        self._reach.clear()
        self._ids = itertools.count(1)


#: The process-wide default tracer every instrumented subsystem uses.
TRACER = Tracer()


def tracer() -> Tracer:
    """The default tracer (each marketplace installs its own scope)."""
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
