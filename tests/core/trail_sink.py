"""A test sink that keeps what a marketplace's event bus publishes.

The bus itself keeps nothing (a session's events live in ``session.trail``);
a test that only holds a run's outcome attaches one of these first.
"""

from __future__ import annotations


class TrailSink:
    """Every event published while attached, filterable by session."""

    def __init__(self) -> None:
        self.events: list = []

    def emit(self, event) -> None:
        self.events.append(event)

    def for_session(self, session_id: str) -> list:
        return [event for event in self.events
                if event.session_id == session_id]
