"""The decision rules, tested as pure functions, and the loop's one write
a poll against a Deployment held in memory."""

import math
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from runner_manager.clock import to_rfc3339
from runner_manager.config import Policy, RepoCoordinates
from runner_manager.errors import CredentialError, ProtocolError, RateLimitedError, TransientError
from runner_manager.github import JobRecord
from runner_manager.kube import DeploymentSnapshot
from runner_manager.labels import LabelSet
from runner_manager.reconciler import (
    ANNOTATION_KEEPALIVE_STARTED,
    ANNOTATION_LAST_ACTIVE,
    Decision,
    ManagerState,
    Reason,
    ReconcileLoop,
    compute_desired,
    keepalive_due,
    keepalive_due_at,
    update_state,
)

HOUR = 3600.0
DAY = 86400.0
POLICY = Policy()  # poll 60s, force 84h, dwell 15m, cap 1


def _job(job_id=1, status="queued"):
    return JobRecord(job_id=job_id, status=status, requested_labels=LabelSet(["self-hosted", "linux-gpu-cuda"]))


def _deployment(spec=0, ready=0):
    return DeploymentSnapshot(spec, ready, {})


# -- keepalive_due ----------------------------------------------------------


def test_due_when_interval_exceeded():
    now = 100 * DAY
    assert keepalive_due(now - 84.5 * HOUR, now, POLICY)


def test_not_due_when_recent():
    now = 100 * DAY
    assert not keepalive_due(now - 1 * HOUR, now, POLICY)


def test_unknown_history_counts_as_stale():
    assert keepalive_due(None, 0.0, POLICY)


def test_lead_time_starts_activation_early():
    # The activation begins one 15 min dwell before the 84 h deadline, so
    # the full dwell fits inside the force interval.
    now = 100 * DAY
    dwell = 15 * 60.0
    assert keepalive_due(now - (84 * HOUR - dwell), now, POLICY)
    assert not keepalive_due(now - (84 * HOUR - dwell - 1), now, POLICY)


@given(
    last_active=st.floats(min_value=1.69e9, max_value=1.71e9),
    force_interval=st.floats(min_value=HOUR, max_value=3.5 * DAY),
    min_dwell=st.floats(min_value=60.0, max_value=1800.0),
)
def test_keepalive_next_due_is_the_instant_the_decision_turns(last_active, force_interval, min_dwell):
    # Durations that are not whole binary fractions, such as 60.7 s, round
    # differently in any second formula for the same instant.
    policy = Policy(force_interval=force_interval, min_dwell=min_dwell)
    state = ManagerState(last_active=last_active)
    due = keepalive_due_at(last_active, policy)
    assert compute_desired([], 0, state, policy, due) == Decision(1, Reason.KEEPALIVE)
    before = math.nextafter(due, -math.inf)
    assert compute_desired([], 0, state, policy, before) == Decision(0, Reason.IDLE)


# -- compute_desired ---------------------------------------------------------


def test_demand_capped_at_max_runners():
    decision = compute_desired([_job(1), _job(2), _job(3)], 0, ManagerState(), POLICY, now=0.0)
    assert decision == Decision(1, Reason.DEMAND)


def test_keepalive_when_stale():
    now = 10 * DAY
    state = ManagerState(last_active=now - 4 * DAY)
    policy = Policy(force_interval=3.5 * DAY)
    assert compute_desired([], 0, state, policy, now) == Decision(1, Reason.KEEPALIVE)


def test_in_progress_job_pins_runner():
    now = 100.0
    jobs = [_job(status="in_progress")]
    state = ManagerState(last_active=now - 60)
    assert compute_desired(jobs, 1, state, POLICY, now) == Decision(1, Reason.BUSY)


def test_idle_when_fresh_and_no_work():
    now = 1000.0
    state = ManagerState(last_active=now - 60)
    assert compute_desired([], 0, state, POLICY, now) == Decision(0, Reason.IDLE)


def test_hold_on_github_failure_keeps_the_known_count_up_to_the_cap():
    policy = Policy(max_runners=3)
    assert compute_desired(None, 2, ManagerState(), policy, now=0.0) == Decision(2, Reason.HOLD)
    assert compute_desired(None, 5, ManagerState(), policy, now=0.0) == Decision(3, Reason.HOLD)


def test_hold_falls_back_to_observed_then_zero():
    assert compute_desired(None, 1, ManagerState(), POLICY, 0.0) == Decision(1, Reason.HOLD)
    assert compute_desired(None, None, ManagerState(), POLICY, 0.0) == Decision(0, Reason.HOLD)


def test_dwell_keeps_keepalive_runner_up():
    now = 1000.0
    state = ManagerState(last_active=now - 10, keepalive_started_at=now - 300)
    assert compute_desired([], 1, state, POLICY, now) == Decision(1, Reason.KEEPALIVE)
    done = ManagerState(last_active=now - 10, keepalive_started_at=now - POLICY.min_dwell)
    assert compute_desired([], 1, done, POLICY, now) == Decision(0, Reason.IDLE)


def test_demand_wins_over_keepalive():
    now = 10 * DAY
    state = ManagerState(last_active=None, keepalive_started_at=now - 60)
    assert compute_desired([_job()], 0, state, POLICY, now).reason is Reason.DEMAND


@given(
    jobs=st.integers(min_value=0, max_value=50),
    max_runners=st.integers(min_value=1, max_value=5),
    last_active_age=st.one_of(st.none(), st.floats(min_value=0, max_value=10 * DAY)),
    poll_ok=st.booleans(),
)
def test_target_never_exceeds_cap(jobs, max_runners, last_active_age, poll_ok):
    policy = Policy(max_runners=max_runners)
    now = 20 * DAY
    outstanding = [_job(i + 1) for i in range(jobs)] if poll_ok else None
    state = ManagerState(last_active=None if last_active_age is None else now - last_active_age)
    decision = compute_desired(outstanding, min(1, max_runners), state, policy, now)
    assert 0 <= decision.target_replicas <= max_runners


# -- update_state -------------------------------------------------------------


def test_running_pod_refreshes_last_active():
    now = 500.0
    state = update_state(ManagerState(), Decision(1, Reason.DEMAND), _deployment(1, 1), now)
    assert state.last_active == now


def test_keepalive_decision_starts_dwell_once():
    now = 500.0
    state = update_state(ManagerState(), Decision(1, Reason.KEEPALIVE), _deployment(), now)
    assert state.keepalive_started_at == now
    later = update_state(state, Decision(1, Reason.KEEPALIVE), _deployment(), now + 60)
    assert later.keepalive_started_at == now  # not restarted


def test_idle_without_running_pod_leaves_last_active():
    now = 500.0
    before = ManagerState(last_active=100.0)
    after = update_state(before, Decision(0, Reason.IDLE), _deployment(), now)
    assert after.last_active == 100.0


def test_last_active_never_moves_backward():
    state = ManagerState(last_active=100.0)
    after = update_state(state, Decision(1, Reason.DEMAND), _deployment(1, 1), now=50.0)
    assert after.last_active == 100.0


def test_pending_pod_does_not_refresh():
    now = 500.0
    pending = _deployment(1, 0)  # the pod is Pending, or Running but not Ready
    after = update_state(ManagerState(), Decision(1, Reason.DEMAND), pending, now)
    assert after.last_active is None


def test_demand_and_idle_clear_dwell_hold_preserves_it():
    now = 500.0
    empty = _deployment()
    state = ManagerState(keepalive_started_at=400.0)
    assert update_state(state, Decision(1, Reason.DEMAND), empty, now).keepalive_started_at is None
    assert update_state(state, Decision(0, Reason.IDLE), empty, now).keepalive_started_at is None
    assert update_state(state, Decision(1, Reason.HOLD), empty, now).keepalive_started_at == 400.0


class _MemoryDeployment:
    """A Deployment held in memory for one ReconcileLoop. It logs every
    write the loop sends as ``(replicas or None, annotation patch)`` and
    refuses the next one with a 503 while ``refuse`` is set."""

    def __init__(self, annotations: dict[str, str]):
        self.spec = self.ready = 0
        self.annotations = dict(annotations)
        self.writes: list[tuple[int | None, dict]] = []
        self.refuse = False

    def read_scale(self) -> DeploymentSnapshot:
        return DeploymentSnapshot(self.spec, self.ready, dict(self.annotations))

    def write_scale(self, replicas: int, annotations: dict) -> int:
        self._write(replicas, annotations)
        self.spec = replicas
        return replicas

    def write_annotation(self, annotations: dict) -> None:
        self._write(None, annotations)

    def _write(self, replicas: int | None, annotations: dict) -> None:
        self.writes.append((replicas, dict(annotations)))
        if self.refuse:
            self.refuse = False
            raise TransientError("PATCH deployment -> 503", 503)
        for key, value in annotations.items():
            if value is None:
                self.annotations.pop(key, None)
            else:
                self.annotations[key] = value


def _loop(gh_client, kube, clock) -> ReconcileLoop:
    return ReconcileLoop(gh_client, kube, POLICY, clock, RepoCoordinates("biocore", "unifrac"), threading.Event())


def test_the_known_count_tracks_reads_and_successful_writes_only(clock, gh_client):
    # Keepalive is due from the first poll: unknown history.
    kube = _MemoryDeployment({})
    loop = _loop(gh_client, kube, clock)
    kube.refuse = True
    assert loop.reconcile_once(clock.now()).wrote_scale is False
    assert (loop.view.replicas, loop.view.known_at) == (0, 0.0)
    clock.advance(POLICY.poll_interval)
    assert loop.reconcile_once(clock.now()).wrote_scale is True
    assert (loop.view.replicas, loop.view.known_at, loop.view.read_at) == (1, 60.0, 60.0)


def test_a_hold_keeps_the_count_it_read_and_sends_no_scale_write(clock, fake_github, gh_client):
    # max_runners 3 and a stamp that puts the keepalive days off. The first
    # poll reads 0 replicas and writes 2 for two queued jobs. Someone then
    # scales the Deployment to 3 by hand, and GitHub fails. The hold min_dwell
    # on reads 3 and keeps them, where writing back the 2 it wrote would cut
    # a pod; the hold after it keeps that count without a read.
    policy = Policy(max_runners=3)
    kube = _MemoryDeployment({ANNOTATION_LAST_ACTIVE: to_rfc3339(clock.now())})
    loop = ReconcileLoop(gh_client, kube, policy, clock, RepoCoordinates("biocore", "unifrac"), threading.Event())
    for _ in range(2):
        fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"], duration=7200.0)
    assert loop.reconcile_once(clock.now()).desired == 2
    assert kube.writes == [(2, {})]

    kube.spec = 3
    fake_github.set_fault("status", 503.0)
    records = []
    for at in (policy.min_dwell, policy.min_dwell + policy.poll_interval):
        clock.t = at
        records.append(loop.reconcile_once(clock.now()))
    assert [(r.reason, r.desired, r.observed_replicas, r.observed_at) for r in records] == [
        (Reason.HOLD, 3, 3, 900.0),
        (Reason.HOLD, 3, 3, 900.0),
    ]
    assert not any(r.wrote_scale for r in records)
    assert (kube.writes, kube.spec) == ([(2, {})], 3)


def test_keepalive_activation_writes_once_a_poll(clock, gh_client):
    # The runner last ran one dwell short of the force interval ago, so the
    # first poll starts a keepalive activation.
    clock.advance(POLICY.force_interval)
    started = clock.now()
    kube = _MemoryDeployment({ANNOTATION_LAST_ACTIVE: to_rfc3339(started - POLICY.force_interval + POLICY.min_dwell)})
    loop = _loop(gh_client, kube, clock)

    # Scale-up: one patch carries the count and the dwell's start. A
    # refused patch changes nothing held, so the next poll sends it again.
    kube.refuse = True
    assert loop.reconcile_once(started).wrote_scale is False
    assert loop.view.replicas == 0
    assert loop._persisted.keepalive_started_at is None
    clock.advance(POLICY.poll_interval)
    up = clock.now()
    assert loop.reconcile_once(up).wrote_scale is True
    scale_up = (1, {ANNOTATION_KEEPALIVE_STARTED: to_rfc3339(started)})
    assert kube.writes == [scale_up, scale_up]
    assert kube.spec == 1

    # The runner comes up: the next poll reads it ready and writes nothing.
    # last-active is set, so it stays as it is until the runner stops.
    kube.ready = 1
    clock.advance(POLICY.poll_interval)
    seen = clock.now()
    assert loop.reconcile_once(seen).wrote_scale is False
    assert loop.state.last_active == seen
    assert kube.writes[2:] == []

    # The dwell ends: one patch scales to 0, stamps last-active exactly and
    # removes keepalive-started. Refused once, it is sent again whole.
    clock.t = started + POLICY.min_dwell
    kube.refuse = True
    down = clock.now()
    assert loop.reconcile_once(down).wrote_scale is False
    assert loop.view.replicas == 1
    clock.advance(POLICY.poll_interval)
    again = clock.now()
    assert loop.reconcile_once(again).wrote_scale is True
    assert kube.writes[2:] == [
        (0, {ANNOTATION_LAST_ACTIVE: to_rfc3339(down), ANNOTATION_KEEPALIVE_STARTED: None}),
        (0, {ANNOTATION_LAST_ACTIVE: to_rfc3339(again), ANNOTATION_KEEPALIVE_STARTED: None}),
    ]
    assert kube.annotations == {ANNOTATION_LAST_ACTIVE: to_rfc3339(again)}
    assert (kube.spec, loop.view.replicas) == (0, 0)


@pytest.mark.parametrize(
    "error",
    [TransientError("503", 503), RateLimitedError("429", 429), ProtocolError("bad body"), CredentialError("401", 401)],
    ids=lambda error: type(error).__name__,
)
@pytest.mark.parametrize("call", ["list_outstanding_jobs", "read_scale", "write_scale"])
def test_no_api_error_escapes_a_poll(clock, gh_client, call, error):
    # A first failure of any kind, in any of the poll's three calls, ends
    # the poll with a record that counts it against its API.
    kube = _MemoryDeployment({})  # no history: the keepalive writes 1

    def fail(*args):
        raise error

    setattr(gh_client if call == "list_outstanding_jobs" else kube, call, fail)
    record = _loop(gh_client, kube, clock).reconcile_once(clock.now())
    if call == "list_outstanding_jobs":
        assert (record.consecutive_github_errors, record.consecutive_kube_errors) == (1, 0)
        assert record.reason is Reason.HOLD
    else:
        assert (record.consecutive_github_errors, record.consecutive_kube_errors) == (0, 1)
    assert not record.wrote_scale
