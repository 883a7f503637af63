"""Virtual time, stepped by whoever waits on it.

The clock is the one queue of pending work: environment timers set with
``call_at`` (a scenario event, a pod's start-up, a job's completion, a
manager's respawn). Everything runs on one thread. The manager's own
``wait_until`` moves time: it runs each timer due by its deadline, in
(time, set) order, and then advances to the deadline. A timer that sets
the waiter's interrupt (a restart) ends the wait at the timer's instant,
and a wait that would reach the horizon sets its interrupt instead. No one
sleeps on the wall clock, so traces are deterministic and 30 simulated
days cost seconds.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
from typing import Callable

from ..clock import Clock, from_rfc3339

# Scenario time zero: an arbitrary fixed instant so RFC 3339 rendering is stable.
SIM_EPOCH = from_rfc3339("2024-01-01T00:00:00Z")


class TimerClock(Clock):
    """A clock that also runs timers: the one the fakes need, since a pod
    turns Running and a job completes on a timer set with ``call_at``.
    :class:`~runner_manager.clock.SystemClock` is not one."""

    def call_at(self, at: float, fn: Callable[[], None]) -> None:
        """Have ``fn`` run once time reaches ``at``."""
        raise NotImplementedError


class VirtualClock(TimerClock):
    def __init__(self):
        self._now = SIM_EPOCH
        self.horizon = math.inf  # absolute; time stops short of it
        # (at, sequence, fn): equal times run in the order they were set.
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._timer_seq = itertools.count()

    def now(self) -> float:
        return self._now

    def wait_until(self, deadline: float, interrupt: threading.Event) -> None:
        """Run every timer due at or before ``deadline``, the ones the timers
        set included, then advance to ``deadline``. Returns at once when a
        timer sets ``interrupt``; a step that would reach the horizon sets
        ``interrupt`` and returns instead. A timer set in the past runs at
        the current time: time never moves backward."""
        while not interrupt.is_set():
            due = bool(self._timers) and self._timers[0][0] <= deadline
            step = self._timers[0][0] if due else deadline
            if step > self._now:
                if step >= self.horizon:
                    interrupt.set()
                    return
                self.advance_to(step)
            if not due:
                return
            heapq.heappop(self._timers)[2]()

    def call_at(self, at: float, fn: Callable[[], None]) -> None:
        """Have ``fn`` run in the first wait that reaches ``at``."""
        heapq.heappush(self._timers, (at, next(self._timer_seq), fn))

    def advance_to(self, t: float) -> None:
        """Move time forward to ``t``; each step of ``wait_until`` is one call."""
        if t < self._now:
            raise ValueError(f"time cannot move backward: {t} < {self._now}")
        self._now = t

    def release_due(self) -> None:
        """No role on one thread; kept because perfbench wraps it by name."""

    def wait_quiescent(self) -> None:
        """No role on one thread; kept because perfbench wraps it by name."""
