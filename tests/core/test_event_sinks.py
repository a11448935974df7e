"""Event clock semantics and JSONL sink durability (flush/close/torn tail)."""

from __future__ import annotations

import json

import pytest

from repro.core.events import (
    EventBus,
    JSONLSink,
    LifecycleEvent,
    read_jsonl_events,
)
from repro.errors import TelemetryError


def make_event(sequence: int = 1, **overrides) -> LifecycleEvent:
    defaults = dict(
        session_id="s-1", phase="execute", name="unit.test",
        sequence=sequence, wall_time=float(sequence), sim_clock=0.0,
    )
    defaults.update(overrides)
    return LifecycleEvent(**defaults)


class TestClockStamps:
    def test_bus_stamps_both_clocks(self):
        walls = iter([10.0, 11.5])
        stamps = iter([1e9, 1e9 + 100])
        bus = EventBus(clock=lambda: next(walls),
                       abs_clock=lambda: next(stamps))
        first = bus.emit(session_id="s", phase="p", name="a", sim_clock=0.0)
        second = bus.emit(session_id="s", phase="p", name="b", sim_clock=0.0)
        assert second.wall_time - first.wall_time == pytest.approx(1.5)
        assert second.timestamp - first.timestamp == pytest.approx(100)

    def test_default_clocks_are_perf_counter_and_time(self):
        import time

        bus = EventBus()
        before_wall, before_abs = time.perf_counter(), time.time()
        event = bus.emit(session_id="s", phase="p", name="a", sim_clock=0.0)
        assert event.wall_time >= before_wall
        assert event.timestamp >= before_abs

    def test_timestamp_round_trips_through_dict(self):
        event = make_event(timestamp=1_700_000_000.25)
        rebuilt = LifecycleEvent.from_dict(event.to_dict())
        assert rebuilt.timestamp == 1_700_000_000.25

    def test_old_records_without_timestamp_still_load(self):
        record = make_event().to_dict()
        del record["timestamp"]
        assert LifecycleEvent.from_dict(record).timestamp == 0.0


class TestJSONLSinkLifecycle:
    def test_context_manager_closes(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JSONLSink(path) as sink:
            sink.emit(make_event())
        with pytest.raises(ValueError):      # I/O on a closed file
            sink.emit(make_event())
        assert len(read_jsonl_events(path)) == 1

    def test_explicit_flush_makes_lines_visible(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JSONLSink(path)
        sink.emit(make_event(1))
        sink.emit(make_event(2))
        # The sink flushes each line as it writes it, so both are visible
        # to a second reader while the sink is still open.
        assert len(read_jsonl_events(path)) == 2
        sink.close()

    def test_close_flushes_pending(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JSONLSink(path)
        sink.emit(make_event())
        sink.close()
        assert len(read_jsonl_events(path)) == 1

    def test_close_is_idempotent(self, tmp_path):
        sink = JSONLSink(str(tmp_path / "t.jsonl"))
        sink.close()
        sink.close()


class TestKilledMidRunTrace:
    """A writer killed mid-write leaves a torn final line; replay survives."""

    def _write_torn_trace(self, path: str, complete: int) -> None:
        with JSONLSink(path) as sink:
            for sequence in range(1, complete + 1):
                sink.emit(make_event(sequence))
        with open(path, "a", encoding="utf-8") as handle:
            full_line = json.dumps(make_event(complete + 1).to_dict())
            handle.write(full_line[: len(full_line) // 2])  # kill mid-write

    def test_torn_tail_is_dropped_silently(self, tmp_path):
        path = str(tmp_path / "killed.jsonl")
        self._write_torn_trace(path, complete=5)
        events = read_jsonl_events(path)
        assert [e.sequence for e in events] == [1, 2, 3, 4, 5]

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = str(tmp_path / "edited.jsonl")
        lines = [json.dumps(make_event(i).to_dict()) for i in (1, 2, 3)]
        lines[1] = lines[1][:10]  # corruption NOT at the tail
        (tmp_path / "edited.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(TelemetryError, match="line 2"):
            read_jsonl_events(path)
