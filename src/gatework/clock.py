"""Time sources.

Real runs use the system clock. Scripted and replayed runs use a tick clock
so history timestamps, report payloads, and workspace file names come out
byte-identical across repetitions.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from typing import Protocol


class Clock(Protocol):
    def now(self) -> datetime: ...


class SystemClock:
    """Wall clock, always UTC."""

    def now(self) -> datetime:
        return datetime.now(timezone.utc)


class TickClock:
    """Deterministic clock: advances by a fixed step on every call."""

    def __init__(
        self, start: datetime = datetime(2000, 1, 1, tzinfo=timezone.utc), step_seconds: float = 1.0
    ) -> None:
        self.start, self.step_seconds = start, step_seconds
        self._ticks = 0

    def now(self) -> datetime:
        value = self.start + timedelta(seconds=self.step_seconds * self._ticks)
        self._ticks += 1
        return value


def iso8601(ts: datetime) -> str:
    """Render a timestamp as ISO-8601 with a Z suffix."""
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def parse_iso8601(text: str) -> datetime:
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    return datetime.fromisoformat(text)
