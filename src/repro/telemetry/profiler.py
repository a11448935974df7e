"""Deterministic sampling profiler attributing samples to the span stack.

The profiler answers the question span totals cannot: *where inside a
phase* does the time go.  It installs a ``sys.setprofile`` hook (so it sees
every Python/C call boundary without tracing every line) and, on a
configurable trigger, captures the current frame stack prefixed with the
active telemetry context — the tracer's open span stack plus any
:class:`profiled` regions — producing merged flame data the exporters can
render as collapsed stacks, JSON, or a terminal tree.

Three trigger modes, ordered by determinism:

* ``"calls"`` — sample every Nth profile event.  Fully deterministic: two
  identical seeded runs in fresh processes see the same event stream and
  produce byte-identical collapsed output.  This is what the determinism
  tests and ``python -m repro profile`` use.
* ``"sim"`` — sample each time the sim clock crosses a ``1/hz`` deadline.
  Deterministic whenever the simulation itself is (triggers are evaluated
  at call boundaries against simulated time only).
* ``"wall"`` — classic wall-clock sampling at ``hz``; statistically
  faithful to real CPU cost but not reproducible.

Zero overhead when disabled: no hook is installed until :meth:`start`, and
the :class:`profiled` region markers reduce to two attribute loads and a
``None`` check when no profiler is active — cheap enough to sit inside
the gossip kernel's round loop permanently.

Caveat: only one profiler can be active per process (``sys.setprofile`` is
process-global), and code under profile must not install its own profile
hook.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import TelemetryError
from repro.telemetry.tracing import Tracer
from repro.telemetry.tracing import tracer as default_tracer

PROFILE_FORMAT = "pds2-profile/1"

MODES = ("wall", "sim", "calls")

#: Default wall/sim sampling rate (prime, to avoid phase-locking with
#: periodic workloads — the classic profiler trick).
DEFAULT_HZ = 97.0

#: Default event stride in ``"calls"`` mode: sample every Nth profile event.
DEFAULT_CALL_INTERVAL = 64

#: Frames captured per sample, leaf-side; deeper ancestry is dropped.
MAX_STACK_DEPTH = 48

_SPAN_PREFIX = "span:"
_REGION_PREFIX = "region:"
_THIS_FILE = __file__


def _code_label(code) -> str:
    """A stable, machine-independent label for one code object.

    Filenames are cut down to a module-ish path (``repro/...`` for our own
    tree, package-relative for stdlib/site-packages) so two checkouts — or
    two CI runs — label the same frame identically; separators the
    collapsed-stack format reserves are replaced.
    """
    path = code.co_filename.replace("\\", "/")
    src_idx = path.rfind("/src/repro/")
    site_idx = path.rfind("/site-packages/")
    lib_idx = path.rfind("/lib/python")
    if src_idx >= 0:
        path = "repro/" + path[src_idx + len("/src/repro/"):]
    elif site_idx >= 0:
        path = path[site_idx + len("/site-packages/"):]
    elif lib_idx >= 0:
        rest = path[lib_idx + len("/lib/python"):]
        slash = rest.find("/")
        path = rest[slash + 1:] if slash >= 0 else rest
    else:
        path = path.rsplit("/", 1)[-1]
    qualname = getattr(code, "co_qualname", code.co_name)
    return f"{path}:{qualname}".replace(";", ",").replace(" ", "_")


@dataclass
class Profile:
    """The merged result of one profiling run.

    ``samples`` maps root-first stacks — ``span:``/``region:`` context
    frames first, then code frames — to how many samples landed there.
    """

    mode: str
    samples: dict[tuple[str, ...], int] = field(default_factory=dict)
    total_samples: int = 0
    attributed_samples: int = 0
    events_seen: int = 0
    hz: float = 0.0
    call_interval: int = 0

    @property
    def attribution_ratio(self) -> float:
        """Fraction of samples landing under at least one span/region."""
        if not self.total_samples:
            return 0.0
        return self.attributed_samples / self.total_samples

    def to_dict(self) -> dict:
        """JSON-serializable dump."""
        return {
            "format": PROFILE_FORMAT,
            "mode": self.mode,
            "hz": self.hz,
            "call_interval": self.call_interval,
            "total_samples": self.total_samples,
            "attributed_samples": self.attributed_samples,
            "events_seen": self.events_seen,
            "samples": [
                {"stack": list(stack), "count": count}
                for stack, count in sorted(self.samples.items())
            ],
        }


class Profiler:
    """``sys.setprofile``-driven sampling profiler.  Use as a context
    manager (``with Profiler(mode="calls") as prof: ...``) or via
    :meth:`start`/:meth:`stop`; read :meth:`result` afterwards."""

    def __init__(self, mode: str = "wall", hz: float = DEFAULT_HZ,
                 call_interval: int = DEFAULT_CALL_INTERVAL,
                 sim_clock: Optional[Callable[[], float]] = None,
                 trace: Optional[Tracer] = None):
        if mode not in MODES:
            raise TelemetryError(f"profiler mode {mode!r} not in {MODES}")
        if hz <= 0:
            raise TelemetryError("profiler hz must be positive")
        if call_interval < 1:
            raise TelemetryError("call_interval must be >= 1")
        self.mode = mode
        self.hz = float(hz)
        self.period = 1.0 / float(hz)
        self.call_interval = int(call_interval)
        self._tracer = trace if trace is not None else default_tracer()
        self._sim_clock = sim_clock
        #: Open ``profiled(...)`` region names, innermost last.
        self.regions: list[str] = []
        self.samples: dict[tuple[str, ...], int] = {}
        self.total_samples = 0
        self.attributed_samples = 0
        self.events_seen = 0
        self._running = False
        self._next = 0.0
        self._label_cache: dict[Any, str] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        global _ACTIVE
        if self._running:
            raise TelemetryError("profiler already running")
        if _ACTIVE is not None:
            raise TelemetryError(
                "another profiler is active (sys.setprofile is process-global)"
            )
        if self.mode == "sim":
            sim = self._sim_clock or self._tracer.sim_clock
            self._sim = sim
            self._next = float(sim()) + self.period
        elif self.mode == "wall":
            self._next = time.perf_counter() + self.period
        self._running = True
        _ACTIVE = self
        sys.setprofile(self._hook)

    def stop(self) -> None:
        global _ACTIVE
        if not self._running:
            raise TelemetryError("profiler is not running")
        sys.setprofile(None)
        _ACTIVE = None
        self._running = False
        self.regions.clear()

    def __enter__(self) -> "Profiler":
        self.start()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False

    # -- sampling ------------------------------------------------------------

    def _hook(self, frame, event: str, arg) -> None:
        self.events_seen += 1
        if self.mode == "calls":
            if self.events_seen % self.call_interval:
                return
        elif self.mode == "wall":
            now = time.perf_counter()
            if now < self._next:
                return
            self._next = now + self.period
        else:  # sim
            now = float(self._sim())
            if now < self._next:
                return
            self._next = now + self.period
        self._record(frame)

    def _record(self, frame) -> None:
        cache = self._label_cache
        stack: list[str] = []
        current = frame
        while current is not None and len(stack) < MAX_STACK_DEPTH:
            code = current.f_code
            if code.co_filename != _THIS_FILE:
                label = cache.get(code)
                if label is None:
                    label = _code_label(code)
                    cache[code] = label
                stack.append(label)
            current = current.f_back
        stack.reverse()
        prefix = [_SPAN_PREFIX + span.name for span in self._tracer._stack]
        prefix.extend(_REGION_PREFIX + name for name in self.regions)
        key = tuple(prefix + stack)
        self.samples[key] = self.samples.get(key, 0) + 1
        self.total_samples += 1
        if prefix:
            self.attributed_samples += 1

    # -- results -------------------------------------------------------------

    def result(self) -> Profile:
        return Profile(
            mode=self.mode,
            samples=dict(self.samples),
            total_samples=self.total_samples,
            attributed_samples=self.attributed_samples,
            events_seen=self.events_seen,
            hz=self.hz,
            call_interval=self.call_interval,
        )


#: The process-wide active profiler, or None.  ``profiled`` markers check
#: this on entry; keeping it a module global keeps the disabled path free.
_ACTIVE: Optional[Profiler] = None


class profiled:
    """Mark a hot region for the sampling profiler.

    ``with profiled("kernel.merge"):`` names part of a function in flame
    output where no frame of its own does and a full
    :class:`~repro.telemetry.tracing.Span` would be too heavy.  A whole
    function needs no region: the sampler records its frame.  When no
    profiler is running, entry and exit are a global load and a ``None``
    check.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> "profiled":
        prof = _ACTIVE
        if prof is not None:
            prof.regions.append(self.name)
        return self

    def __exit__(self, *exc: object) -> bool:
        prof = _ACTIVE
        # Guarded pop: a profiler started mid-region must not unbalance us.
        if prof is not None and prof.regions and prof.regions[-1] == self.name:
            prof.regions.pop()
        return False
