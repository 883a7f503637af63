import threading

import pytest

from runner_manager.errors import CredentialError, RateLimitedError, TransientError
from runner_manager.github import BackoffState, backoff_delay, execute_with_backoff

from conftest import SteppingClock


class Flaky:
    """Callable failing a scripted number of times before succeeding."""

    def __init__(self, failures, exc=TransientError("boom", 500)):
        self.remaining = failures
        self.exc = exc
        self.calls = 0
        self.call_times = []

    def bind(self, clock):
        self.clock = clock
        return self

    def __call__(self):
        self.calls += 1
        self.call_times.append(self.clock.now())
        if self.remaining > 0:
            self.remaining -= 1
            raise self.exc
        return "payload"


def test_schedule_one_two_four_eight_capped_at_sixty():
    assert [backoff_delay(n) for n in (1, 2, 3, 4)] == [1, 2, 4, 8]
    assert backoff_delay(7) == 60
    assert backoff_delay(20) == 60


def test_three_500s_then_success_resets_failures():
    clock = SteppingClock()
    call = Flaky(3).bind(clock)
    state = BackoffState()
    result = execute_with_backoff(call, state, clock, window_end=60.0, interrupt=threading.Event())
    assert result == "payload"
    assert state.consecutive_failures == 0
    assert call.calls == 4
    assert call.call_times == [0.0, 1.0, 3.0, 7.0]


def test_retry_after_header_sets_next_allowed_attempt():
    clock = SteppingClock()
    call = Flaky(99, exc=RateLimitedError("limited", 429, retry_after=120.0)).bind(clock)
    state = BackoffState()
    with pytest.raises(RateLimitedError):
        execute_with_backoff(call, state, clock, window_end=60.0, interrupt=threading.Event())
    assert call.calls == 1
    assert state.next_allowed_attempt == 120.0  # now + Retry-After


def test_gate_skips_without_attempting_when_wait_crosses_window():
    clock = SteppingClock()
    call = Flaky(0).bind(clock)
    state = BackoffState(consecutive_failures=3, next_allowed_attempt=90.0)
    with pytest.raises(TransientError):
        execute_with_backoff(call, state, clock, window_end=60.0, interrupt=threading.Event())
    assert call.calls == 0
    assert state.consecutive_failures == 3  # unchanged: nothing was attempted


def test_gate_waits_within_window_then_attempts():
    clock = SteppingClock()
    call = Flaky(0).bind(clock)
    state = BackoffState(consecutive_failures=2, next_allowed_attempt=30.0)
    result = execute_with_backoff(call, state, clock, window_end=60.0, interrupt=threading.Event())
    assert result == "payload"
    assert call.call_times == [30.0]


def test_never_retries_past_poll_boundary():
    clock = SteppingClock()
    call = Flaky(99).bind(clock)
    state = BackoffState()
    with pytest.raises(TransientError):
        execute_with_backoff(call, state, clock, window_end=60.0, interrupt=threading.Event())
    # attempts at 0,1,3,7,15,31; the next (31+32=63) would cross the boundary
    assert call.call_times == [0.0, 1.0, 3.0, 7.0, 15.0, 31.0]
    assert clock.now() <= 60.0
    assert state.consecutive_failures == 6


def test_credential_errors_never_retried():
    clock = SteppingClock()
    call = Flaky(99, exc=CredentialError("denied", 401)).bind(clock)
    state = BackoffState()
    with pytest.raises(CredentialError):
        execute_with_backoff(call, state, clock, window_end=60.0, interrupt=threading.Event())
    assert call.calls == 1
    assert state.consecutive_failures == 0


def test_interrupt_stops_backoff_wait():
    clock = SteppingClock()
    stop = threading.Event()
    stop.set()
    call = Flaky(0).bind(clock)
    state = BackoffState(next_allowed_attempt=30.0)
    with pytest.raises(TransientError, match="interrupted"):
        execute_with_backoff(call, state, clock, window_end=60.0, interrupt=stop)
    assert call.calls == 0


def test_failure_whose_retry_lands_on_the_window_end_propagates_itself():
    # Retry-After puts the next attempt exactly at window_end: that attempt
    # is not in this window, so the caller gets the rate limit itself, not
    # the gate's "beyond this poll window".
    clock = SteppingClock()
    call = Flaky(99, exc=RateLimitedError("limited", 429, retry_after=60.0)).bind(clock)
    state = BackoffState()
    with pytest.raises(RateLimitedError):
        execute_with_backoff(call, state, clock, window_end=60.0, interrupt=threading.Event())
    assert call.calls == 1
    assert state.next_allowed_attempt == 60.0


def test_attempt_due_now_is_made_even_when_interrupted():
    # The interrupt cuts a wait short; an attempt that needs no wait -- due
    # exactly now -- is made, as one due earlier would be.
    clock = SteppingClock(start=30.0)
    stop = threading.Event()
    stop.set()
    call = Flaky(0).bind(clock)
    state = BackoffState(consecutive_failures=2, next_allowed_attempt=30.0)
    assert execute_with_backoff(call, state, clock, window_end=60.0, interrupt=stop) == "payload"
    assert call.call_times == [30.0]


def test_failure_under_a_set_interrupt_propagates_without_waiting():
    # The stop request came in during the attempt: the failure itself goes
    # to the caller at once, with no backoff wait before it.
    clock = SteppingClock()
    stop = threading.Event()
    stop.set()
    call = Flaky(1).bind(clock)
    state = BackoffState()
    with pytest.raises(TransientError, match="boom"):
        execute_with_backoff(call, state, clock, window_end=60.0, interrupt=stop)
    assert (call.calls, clock.now(), clock.waits) == (1, 0.0, [])
    assert (state.consecutive_failures, state.next_allowed_attempt) == (1, 1.0)
