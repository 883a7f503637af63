"""Time source abstraction.

Every component takes an explicit clock so the test harness can drive the
whole system on simulated time. Production uses :class:`SystemClock`.
"""

from __future__ import annotations

import threading
import time
from datetime import datetime, timezone


class Clock:
    """Interface: POSIX-seconds ``now()`` plus an interruptible wait."""

    def now(self) -> float:
        raise NotImplementedError

    def wait_until(self, deadline: float, interrupt: threading.Event) -> None:
        """Block until ``now() >= deadline`` or ``interrupt`` is set."""
        raise NotImplementedError


class SystemClock(Clock):
    """Wall-clock time."""

    def now(self) -> float:
        return time.time()

    def wait_until(self, deadline: float, interrupt: threading.Event) -> None:
        while True:
            remaining = deadline - time.time()
            if remaining <= 0 or interrupt.wait(timeout=remaining):
                return


def to_rfc3339(ts: float) -> str:
    """Format POSIX seconds as an RFC 3339 UTC timestamp."""
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ") if ts == int(ts) else dt.isoformat().replace("+00:00", "Z")


def from_rfc3339(text: str) -> float:
    """Parse an RFC 3339 timestamp to POSIX seconds. Raises ValueError."""
    cleaned = text.strip()
    if cleaned.endswith("Z"):
        cleaned = cleaned[:-1] + "+00:00"
    dt = datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()
