"""The decision rules, tested as pure functions."""

from hypothesis import given
from hypothesis import strategies as st

from runner_manager.config import Policy
from runner_manager.github import JobRecord
from runner_manager.kube import DeploymentSnapshot
from runner_manager.labels import LabelSet
from runner_manager.reconciler import (
    Decision,
    ManagerState,
    Observation,
    Reason,
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
    state = update_state(ManagerState(), Decision(1, Reason.DEMAND), obs, now, wrote_scale=False)
    assert state.last_active == now


def test_keepalive_decision_starts_dwell_once():
    now = 500.0
    obs = _obs()
    state = update_state(ManagerState(), Decision(1, Reason.KEEPALIVE), obs, now, wrote_scale=False)
    assert state.keepalive_started_at == now
    later = update_state(state, Decision(1, Reason.KEEPALIVE), obs, now + 60, wrote_scale=False)
    assert later.keepalive_started_at == now  # not restarted


def test_idle_without_running_pod_leaves_last_active():
    now = 500.0
    obs = _obs()
    before = ManagerState(last_active=100.0)
    after = update_state(before, Decision(0, Reason.IDLE), obs, now, wrote_scale=False)
    assert after.last_active == 100.0


def test_last_active_never_moves_backward():
    obs = _obs(spec=1, ready=1)
    state = ManagerState(last_active=100.0)
    after = update_state(state, Decision(1, Reason.DEMAND), obs, now=50.0, wrote_scale=False)
    assert after.last_active == 100.0


def test_pending_pod_does_not_refresh():
    now = 500.0
    obs = _obs(spec=1, ready=0)  # the pod is Pending, or Running but not Ready
    after = update_state(ManagerState(), Decision(1, Reason.DEMAND), obs, now, wrote_scale=False)
    assert after.last_active is None


def test_demand_and_idle_clear_dwell_hold_preserves_it():
    now = 500.0
    obs = _obs()
    state = ManagerState(keepalive_started_at=400.0)
    assert update_state(state, Decision(1, Reason.DEMAND), obs, now, wrote_scale=False).keepalive_started_at is None
    assert update_state(state, Decision(0, Reason.IDLE), obs, now, wrote_scale=False).keepalive_started_at is None
    assert update_state(state, Decision(1, Reason.HOLD), obs, now, wrote_scale=False).keepalive_started_at == 400.0


def test_last_written_tracks_successful_writes_only():
    now = 500.0
    obs = _obs()
    wrote = update_state(ManagerState(), Decision(1, Reason.DEMAND), obs, now, wrote_scale=True)
    assert wrote.last_written_replicas == 1
    skipped = update_state(wrote, Decision(0, Reason.IDLE), obs, now, wrote_scale=False)
    assert skipped.last_written_replicas == 1
