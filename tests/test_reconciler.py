"""The decision rules, tested as pure functions, and the loop's one write
a poll against a Deployment held in memory."""

import threading

from hypothesis import given
from hypothesis import strategies as st

from runner_manager.clock import to_rfc3339
from runner_manager.config import Policy, RepoCoordinates
from runner_manager.errors import TransientError
from runner_manager.github import JobRecord
from runner_manager.kube import DeploymentSnapshot
from runner_manager.labels import LabelSet
from runner_manager.reconciler import (
    ANNOTATION_KEEPALIVE_STARTED,
    ANNOTATION_LAST_ACTIVE,
    Decision,
    ManagerState,
    Observation,
    Reason,
    ReconcileLoop,
    compute_desired,
    keepalive_due,
    update_state,
)

HOUR = 3600.0
DAY = 86400.0
POLICY = Policy()  # poll 60s, force 84h, dwell 15m, cap 1


def _job(job_id=1, status="queued"):
    return JobRecord(job_id=job_id, status=status, requested_labels=LabelSet(["self-hosted", "linux-gpu-cuda"]))


def _obs(jobs=(), spec=0, ready=0, ok=True):
    return Observation(
        outstanding_jobs=None if jobs is None else list(jobs),
        deployment=DeploymentSnapshot(spec, ready, {}) if ok else None,
    )


# -- keepalive_due ----------------------------------------------------------


def test_due_when_interval_exceeded():
    now = 100 * DAY
    assert keepalive_due(now - 84.5 * HOUR, now, 84 * HOUR, 0.0)


def test_not_due_when_recent():
    now = 100 * DAY
    assert not keepalive_due(now - 1 * HOUR, now, 84 * HOUR, 0.0)


def test_unknown_history_counts_as_stale():
    assert keepalive_due(None, 0.0, 84 * HOUR, 0.0)


def test_lead_time_starts_activation_early():
    # With a 15 min lead, the activation begins one dwell before the deadline
    # so the full dwell fits inside the force interval.
    now = 100 * DAY
    lead = 15 * 60.0
    assert keepalive_due(now - (84 * HOUR - lead), now, 84 * HOUR, lead)
    assert not keepalive_due(now - (84 * HOUR - lead - 1), now, 84 * HOUR, lead)


# -- compute_desired ---------------------------------------------------------


def test_demand_capped_at_max_runners():
    obs = _obs(jobs=[_job(1), _job(2), _job(3)])
    decision = compute_desired(obs, ManagerState(), POLICY, now=0.0)
    assert decision == Decision(1, Reason.DEMAND)


def test_keepalive_when_stale():
    now = 10 * DAY
    obs = _obs()
    state = ManagerState(last_active=now - 4 * DAY)
    policy = Policy(force_interval=3.5 * DAY)
    assert compute_desired(obs, state, policy, now) == Decision(1, Reason.KEEPALIVE)


def test_in_progress_job_pins_runner():
    now = 100.0
    obs = _obs(jobs=[_job(status="in_progress")], spec=1, ready=1)
    state = ManagerState(last_active=now - 60)
    assert compute_desired(obs, state, POLICY, now) == Decision(1, Reason.DEMAND)


def test_idle_when_fresh_and_no_work():
    now = 1000.0
    obs = _obs()
    state = ManagerState(last_active=now - 60)
    assert compute_desired(obs, state, POLICY, now) == Decision(0, Reason.IDLE)


def test_hold_on_github_failure_keeps_last_written():
    obs = Observation(None, DeploymentSnapshot(1, 1, {}))
    state = ManagerState(last_written_replicas=1)
    assert compute_desired(obs, state, POLICY, now=0.0) == Decision(1, Reason.HOLD)


def test_hold_falls_back_to_observed_then_zero():
    obs = Observation(None, DeploymentSnapshot(1, 1, {}))
    assert compute_desired(obs, ManagerState(), POLICY, 0.0) == Decision(1, Reason.HOLD)
    blind = Observation(None, None)
    assert compute_desired(blind, ManagerState(), POLICY, 0.0) == Decision(0, Reason.HOLD)


def test_dwell_keeps_keepalive_runner_up():
    now = 1000.0
    obs = _obs(spec=1, ready=1)
    state = ManagerState(last_active=now - 10, keepalive_started_at=now - 300)
    assert compute_desired(obs, state, POLICY, now) == Decision(1, Reason.KEEPALIVE)
    done = ManagerState(last_active=now - 10, keepalive_started_at=now - POLICY.min_dwell)
    assert compute_desired(obs, done, POLICY, now) == Decision(0, Reason.IDLE)


def test_demand_wins_over_keepalive():
    now = 10 * DAY
    obs = _obs(jobs=[_job()])
    state = ManagerState(last_active=None, keepalive_started_at=now - 60)
    assert compute_desired(obs, state, POLICY, now).reason is Reason.DEMAND


@given(
    jobs=st.integers(min_value=0, max_value=50),
    max_runners=st.integers(min_value=1, max_value=5),
    last_active_age=st.one_of(st.none(), st.floats(min_value=0, max_value=10 * DAY)),
    poll_ok=st.booleans(),
)
def test_target_never_exceeds_cap(jobs, max_runners, last_active_age, poll_ok):
    policy = Policy(max_runners=max_runners)
    now = 20 * DAY
    obs = Observation(
        outstanding_jobs=[_job(i + 1) for i in range(jobs)] if poll_ok else None,
        deployment=DeploymentSnapshot(min(1, max_runners), 0, {}),
    )
    state = ManagerState(last_active=None if last_active_age is None else now - last_active_age)
    decision = compute_desired(obs, state, policy, now)
    assert 0 <= decision.target_replicas <= max_runners


# -- update_state -------------------------------------------------------------


def test_running_pod_refreshes_last_active():
    now = 500.0
    obs = _obs(spec=1, ready=1)
    state = update_state(ManagerState(), Decision(1, Reason.DEMAND), obs, now)
    assert state.last_active == now


def test_keepalive_decision_starts_dwell_once():
    now = 500.0
    obs = _obs()
    state = update_state(ManagerState(), Decision(1, Reason.KEEPALIVE), obs, now)
    assert state.keepalive_started_at == now
    later = update_state(state, Decision(1, Reason.KEEPALIVE), obs, now + 60)
    assert later.keepalive_started_at == now  # not restarted


def test_idle_without_running_pod_leaves_last_active():
    now = 500.0
    obs = _obs()
    before = ManagerState(last_active=100.0)
    after = update_state(before, Decision(0, Reason.IDLE), obs, now)
    assert after.last_active == 100.0


def test_last_active_never_moves_backward():
    obs = _obs(spec=1, ready=1)
    state = ManagerState(last_active=100.0)
    after = update_state(state, Decision(1, Reason.DEMAND), obs, now=50.0)
    assert after.last_active == 100.0


def test_pending_pod_does_not_refresh():
    now = 500.0
    obs = _obs(spec=1, ready=0)  # the pod is Pending, or Running but not Ready
    after = update_state(ManagerState(), Decision(1, Reason.DEMAND), obs, now)
    assert after.last_active is None


def test_demand_and_idle_clear_dwell_hold_preserves_it():
    now = 500.0
    obs = _obs()
    state = ManagerState(keepalive_started_at=400.0)
    assert update_state(state, Decision(1, Reason.DEMAND), obs, now).keepalive_started_at is None
    assert update_state(state, Decision(0, Reason.IDLE), obs, now).keepalive_started_at is None
    assert update_state(state, Decision(1, Reason.HOLD), obs, now).keepalive_started_at == 400.0


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


def test_last_written_tracks_successful_writes_only(clock, gh_client):
    # Keepalive is due from the first poll: unknown history.
    kube = _MemoryDeployment({})
    loop = _loop(gh_client, kube, clock)
    kube.refuse = True
    assert loop.reconcile_once(clock.now()).wrote_scale is False
    assert loop.state.last_written_replicas is None
    clock.advance(POLICY.poll_interval)
    assert loop.reconcile_once(clock.now()).wrote_scale is True
    assert loop.state.last_written_replicas == 1


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
    assert loop.state.last_written_replicas is None
    assert loop._persisted.keepalive_started_at is None
    clock.advance(POLICY.poll_interval)
    up = clock.now()
    assert loop.reconcile_once(up).wrote_scale is True
    scale_up = (1, {ANNOTATION_KEEPALIVE_STARTED: to_rfc3339(started)})
    assert kube.writes == [scale_up, scale_up]
    assert kube.spec == 1

    # The runner comes up: the next poll moves last-active, annotation only.
    kube.ready = 1
    clock.advance(POLICY.poll_interval)
    seen = clock.now()
    assert loop.reconcile_once(seen).wrote_scale is False
    assert kube.writes[2:] == [(None, {ANNOTATION_LAST_ACTIVE: to_rfc3339(seen)})]

    # The dwell ends: one patch scales to 0, stamps last-active exactly and
    # removes keepalive-started. Refused once, it is sent again whole.
    clock.t = started + POLICY.min_dwell
    kube.refuse = True
    down = clock.now()
    assert loop.reconcile_once(down).wrote_scale is False
    assert loop.state.last_written_replicas == 1
    clock.advance(POLICY.poll_interval)
    again = clock.now()
    assert loop.reconcile_once(again).wrote_scale is True
    assert kube.writes[3:] == [
        (0, {ANNOTATION_LAST_ACTIVE: to_rfc3339(down), ANNOTATION_KEEPALIVE_STARTED: None}),
        (0, {ANNOTATION_LAST_ACTIVE: to_rfc3339(again), ANNOTATION_KEEPALIVE_STARTED: None}),
    ]
    assert kube.annotations == {ANNOTATION_LAST_ACTIVE: to_rfc3339(again)}
    assert (kube.spec, loop.state.last_written_replicas) == (0, 0)
