"""Virtual time with a driver/actor handshake.

The clock is the one queue of pending work: actor threads (the manager)
parked in ``wait_until`` and environment timers set with ``call_at`` (pod
start-up, job completion, a manager respawn). The scenario driver owns
time. It advances the clock to ``next_deadline()`` only when every actor is
blocked, runs the due timers, then releases the actors whose deadlines
arrived. No thread ever sleeps on the wall clock, so traces are
deterministic and 30 simulated days cost seconds.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Callable

from ..clock import Clock, from_rfc3339

# Scenario time zero: an arbitrary fixed instant so RFC 3339 rendering is stable.
SIM_EPOCH = from_rfc3339("2024-01-01T00:00:00Z")
QUIESCE_TIMEOUT = 60.0  # wall seconds the driver waits for every actor to park


class _Waiter:
    __slots__ = ("deadline", "event", "interrupt")

    def __init__(self, deadline: float, interrupt: threading.Event | None):
        self.deadline = deadline
        self.event = threading.Event()
        self.interrupt = interrupt


class VirtualClock(Clock):
    def __init__(self):
        self._now = SIM_EPOCH
        self._cond = threading.Condition()
        self._busy = 0
        self._waiters: list[_Waiter] = []
        # (at, sequence, fn): equal times run in the order they were set.
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._timer_seq = itertools.count()

    # -- Clock interface (actor side) --------------------------------------

    def now(self) -> float:
        with self._cond:
            return self._now

    def wait_until(self, deadline: float, interrupt: threading.Event | None = None) -> None:
        with self._cond:
            if interrupt is not None and interrupt.is_set():
                return
            if deadline <= self._now:
                return
            waiter = _Waiter(deadline, interrupt)
            self._waiters.append(waiter)
            self._busy -= 1
            self._cond.notify_all()
        waiter.event.wait()

    # -- actor lifecycle ----------------------------------------------------

    def register_actor(self) -> None:
        """Count a thread as busy before it starts running."""
        with self._cond:
            self._busy += 1

    def actor_done(self) -> None:
        with self._cond:
            self._busy -= 1
            self._cond.notify_all()

    # -- environment timers (set by the fakes, run by the driver) -------------

    def call_at(self, at: float, fn: Callable[[], None]) -> None:
        """Have ``fn`` run on the driver thread once time reaches ``at``."""
        with self._cond:
            heapq.heappush(self._timers, (at, next(self._timer_seq), fn))

    def run_due(self) -> None:
        """Run every timer due now, including those the timers themselves set."""
        while True:
            with self._cond:
                if not self._timers or self._timers[0][0] > self._now:
                    return
                fn = heapq.heappop(self._timers)[2]
            fn()

    # -- driver side ---------------------------------------------------------

    def wait_quiescent(self) -> None:
        """Block (on the wall clock) until every actor is parked in wait_until."""
        with self._cond:
            if not self._cond.wait_for(lambda: self._busy == 0, timeout=QUIESCE_TIMEOUT):
                raise RuntimeError(f"actors failed to quiesce within {QUIESCE_TIMEOUT}s (busy={self._busy})")

    def next_deadline(self) -> float | None:
        """The earliest pending timer or waiter deadline; None if there is none."""
        with self._cond:
            deadlines = [w.deadline for w in self._waiters] + [at for at, _, _ in self._timers[:1]]
            return min(deadlines, default=None)

    def advance_to(self, t: float) -> None:
        """Move time forward; run_due() then runs the timers, release_due() wakes."""
        with self._cond:
            if t < self._now:
                raise ValueError(f"time cannot move backward: {t} < {self._now}")
            self._now = t

    def release_due(self) -> None:
        with self._cond:
            due = [w for w in self._waiters if w.deadline <= self._now]
            for waiter in due:
                self._waiters.remove(waiter)
                self._busy += 1  # on the waiter's behalf, before it runs
                waiter.event.set()

    def kick(self) -> None:
        """Wake waiters whose interrupt event has been set (shutdown path)."""
        with self._cond:
            interrupted = [w for w in self._waiters if w.interrupt is not None and w.interrupt.is_set()]
            for waiter in interrupted:
                self._waiters.remove(waiter)
                self._busy += 1
                waiter.event.set()
