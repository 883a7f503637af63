"""run_service end to end: the real loop against the fake world."""

import logging
import socket
import threading
import time
from contextlib import closing
from typing import Callable

import pytest
from conftest import SteppingClock, assert_agrees_with_oracle, kube_requests_by_time

from runner_manager.config import IN_CLUSTER, Config, Policy, RepoCoordinates, load_config
from runner_manager.clock import SystemClock, from_rfc3339, to_rfc3339
from runner_manager.harness.driver import run_scenario
from runner_manager.harness.fake_github import FakeGitHub
from runner_manager.harness import fake_github as fake_github_module
from runner_manager.harness import fake_kube as fake_kube_module
from runner_manager.harness.fake_kube import FakeKube
from runner_manager.harness.scenario import ScenarioEvent, ScenarioScript
from runner_manager.harness.virtual_clock import SIM_EPOCH
from runner_manager.errors import ConfigError, CredentialError
from runner_manager.kube import DeploymentSnapshot, KubeClient, KubeCredentials, resolve_credentials
from runner_manager.github import GitHubClient
from runner_manager.reconciler import (
    ANNOTATION_KEEPALIVE_STARTED,
    ANNOTATION_LAST_ACTIVE,
    Reason,
    ReconcileLoop,
    ReconcileRecord,
    keepalive_due_at,
)
from runner_manager.service import EXIT_CONFIG, EXIT_CREDENTIALS, EXIT_OK, run_service

LABELS = ["self-hosted", "linux-gpu-cuda"]
REPO = RepoCoordinates("biocore", "unifrac")


def test_single_queued_job_scales_once_within_one_poll():
    script = ScenarioScript(
        horizon=900,
        events=[ScenarioEvent(at=10, kind="enqueue_job", payload={"labels": LABELS, "duration": 300})],
        pod_startup_delay=20,
        initial_last_active=0,
    )
    result = run_scenario(script)
    assert not result.scenario_failed
    assert_agrees_with_oracle(script, result)
    up_writes = [w for w in result.writes if w[1] == 1]
    assert len(up_writes) == 1
    assert 10 < up_writes[0][0] <= 10 + result.policy.poll_interval


def test_poll_counts_queued_and_in_progress_jobs_apart():
    # Three matching jobs. With room for four runners the 60 s poll counts
    # three queued jobs, and by the 120 s poll the three runners hold one
    # each; the counts differ, so a swap of the two would show. With room
    # for two the 60 s poll stops reading at two queued jobs, and the 120 s
    # poll, fresh at the cap, stops at the first job in progress: it is
    # settled busy, and its count is a lower bound.
    for max_runners, counts in [(4, [(60.0, 3, 0), (120.0, 0, 3)]), (2, [(60.0, 2, 0), (120.0, 0, 1)])]:
        script = ScenarioScript(
            horizon=121,
            events=[ScenarioEvent(at=10, kind="enqueue_job", payload={"labels": LABELS}) for _ in range(3)],
            initial_last_active=0,
            policy={"max_runners": max_runners},
        )
        result = run_scenario(script)
        assert not result.scenario_failed
        assert result.poll_counts == [(0.0, 0, 0), *counts], max_runners
        assert_agrees_with_oracle(script, result)


def test_scale_down_written_exactly_once_after_completion():
    script = ScenarioScript(
        horizon=900,
        events=[ScenarioEvent(at=10, kind="enqueue_job", payload={"labels": LABELS, "duration": 120})],
        pod_startup_delay=20,
        initial_last_active=0,
    )
    result = run_scenario(script)
    down_writes = [w for w in result.writes if w[1] == 0]
    assert len(down_writes) == 1


def test_idle_polls_write_nothing():
    # Fresh keepalive state, zero jobs, ten polls: desired already matches observed.
    script = ScenarioScript(horizon=600, events=[], initial_last_active=0)
    result = run_scenario(script)
    assert len(result.decisions) == 10
    assert result.writes == []
    assert all(reason == "idle" for _, _, reason in result.decisions)


def test_github_outage_holds_and_never_scales_down():
    script = ScenarioScript(
        horizon=1500,
        events=[
            ScenarioEvent(at=5, kind="enqueue_job", payload={"labels": LABELS, "duration": 4000}),
            ScenarioEvent(at=130, kind="github_fault", payload={"status": 502}),
            ScenarioEvent(at=1400, kind="github_recover"),
        ],
        pod_startup_delay=20,
        initial_last_active=0,
    )
    result = run_scenario(script)
    assert not result.scenario_failed
    assert_agrees_with_oracle(script, result)
    assert [w for w in result.writes if w[1] == 0] == []
    assert any(reason == "hold" for _, _, reason in result.decisions)


def test_restart_preserves_keepalive_bookkeeping():
    # Keepalive dwell survives a manager restart via the deployment annotations.
    script = ScenarioScript(
        horizon=3600,
        events=[ScenarioEvent(at=300, kind="restart_manager", payload={"downtime": 5})],
        pod_startup_delay=20,
        policy={"force_interval": 1800, "min_dwell": 300},
    )
    result = run_scenario(script)
    assert not result.scenario_failed
    assert_agrees_with_oracle(script, result)
    assert "runner-manager/last-active" in result.final_annotations


def test_persistent_401_exits_nonzero():
    script = ScenarioScript(
        horizon=600,
        events=[ScenarioEvent(at=1, kind="github_fault", payload={"status": 401})],
        initial_last_active=0,
    )
    result = run_scenario(script)
    assert result.scenario_failed  # manager gave up mid-scenario
    assert result.manager_exit_codes[-1] == EXIT_CREDENTIALS


def test_persistent_kube_401_exits_nonzero_without_writing():
    script = ScenarioScript(
        horizon=600,
        events=[
            ScenarioEvent(at=0, kind="kube_fault", payload={"status": 401}),
            ScenarioEvent(at=5, kind="enqueue_job", payload={"labels": LABELS, "duration": 300}),
        ],
        initial_last_active=0,
    )
    result = run_scenario(script)
    assert result.scenario_failed  # manager gave up mid-scenario
    assert result.manager_exit_codes[-1] == EXIT_CREDENTIALS
    assert len(result.decisions) == 2  # the third refused poll exits before its record
    assert result.writes == []


class _UnwritableKubeClient(KubeClient):
    """May read the Deployment but is refused every patch of it; keeps what
    each refused replica patch carried."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scale_writes: list[tuple[int, dict]] = []
        self.annotation_writes: list[dict] = []

    def write_scale(self, replicas, annotations):
        self.scale_writes.append((replicas, dict(annotations)))
        raise CredentialError("PATCH deployment -> 403", 403)

    def write_annotation(self, annotations):
        self.annotation_writes.append(dict(annotations))
        raise CredentialError("PATCH deployment -> 403", 403)


def _run_unwritable(clock, github: FakeGitHub, kube: FakeKube) -> tuple[int, _UnwritableKubeClient, list]:
    """run_service with a client refused every patch, until it exits."""
    kube_client = _UnwritableKubeClient(
        KubeCredentials(api_base=kube.base_url, bearer_token="sa", ca_bundle=None, namespace="ci"),
        "gha-runner",
        max_replicas=1,
    )
    github_client = GitHubClient(github.base_url, "t", clock=clock)
    config = Config(
        repo=RepoCoordinates("biocore", "unifrac"),
        policy=Policy(),
        kube_deployment="gha-runner",
        github_api_base=github.base_url,
        github_token="t",
        kube_namespace="ci",
        kube_api_base=kube.base_url,
        kube_sa_dir="/nonexistent",
    )
    records = []
    try:
        code = run_service(
            config, clock, threading.Event(), {}, observer=records.append, github=github_client, kube=kube_client
        )
    finally:
        github_client.close()
        kube_client.close()
        github.close()
        kube.close()
    return code, kube_client, records


def test_refused_scale_writes_reach_the_credential_exit(clock):
    # A queued job and a recent last-active: every poll patches replicas 1
    # alone, as no annotation changes.
    github = FakeGitHub(expected_token="t", clock=clock).start()
    github.enqueue_job(LABELS)
    kube = FakeKube(clock=clock, initial_annotations={ANNOTATION_LAST_ACTIVE: to_rfc3339(clock.now())}).start()
    code, kube_client, records = _run_unwritable(clock, github, kube)
    assert code == EXIT_CREDENTIALS
    assert kube_client.scale_writes == [(1, {})] * 3
    assert [r.consecutive_kube_errors for r in records] == [1, 2]


def test_refused_merged_write_counts_once_a_poll(clock):
    # No last-active annotation: keepalive is due, so each poll sends one
    # patch of the Deployment carrying replicas 1 and the dwell's start. It
    # is refused, so the dwell's start stays the first poll's.
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(clock=clock).start()
    code, kube_client, records = _run_unwritable(clock, github, kube)
    assert code == EXIT_CREDENTIALS
    started = {ANNOTATION_KEEPALIVE_STARTED: to_rfc3339(records[0].decided_at)}
    assert kube_client.scale_writes == [(1, started)] * 3
    # One refused request a poll; the third poll exits at it and sends
    # nothing more.
    assert kube_client.annotation_writes == []
    assert [r.consecutive_kube_errors for r in records] == [1, 2]


def _serve(clock, github_client, kube: FakeKube, stop: threading.Event, observer, policy=Policy()) -> int:
    """run_service with ``github_client`` against fake Kubernetes until ``stop``."""
    config = Config(
        repo=RepoCoordinates("biocore", "unifrac"),
        policy=policy,
        kube_deployment="gha-runner",
        github_api_base="http://github.invalid",  # unused: the client is given
        github_token="t",
        kube_namespace="ci",
        kube_api_base=kube.base_url,
        kube_sa_dir="/nonexistent",
    )
    kube_client = KubeClient(
        KubeCredentials(api_base=kube.base_url, bearer_token="sa", ca_bundle=None, namespace="ci"),
        "gha-runner",
        max_replicas=policy.max_runners,
    )
    try:
        return run_service(
            config, clock=clock, stop=stop, observer=observer, github=github_client, kube=kube_client, environment={}
        )
    finally:
        kube_client.close()


def _run_polls(
    clock, github: FakeGitHub, kube: FakeKube, polls: int, on_record=None, policy=Policy()
) -> tuple[int, list]:
    """run_service against the fakes until ``polls`` records were published;
    ``on_record`` sees each record as it is published."""
    stop = threading.Event()
    records = []

    def observe(record):
        records.append(record)
        if on_record is not None:
            on_record(record)
        if len(records) == polls:
            stop.set()

    with closing(GitHubClient(github.base_url, "t", clock=clock)) as github_client:
        return _serve(clock, github_client, kube, stop, observe, policy), records


class _ScriptedGitHub:
    """A GitHub client stub: each listing runs ``on_list`` and finds no job."""

    rate_limit_remaining = None

    def __init__(self, on_list: Callable[[], None]):
        self.on_list = on_list

    def list_outstanding_jobs(self, repo, labels, cap, in_progress, until_busy):
        self.on_list()
        return []


def test_stop_during_the_github_step_ends_the_poll_before_kubernetes(clock):
    # A SIGTERM that lands while GitHub is being listed: the poll ends there,
    # with no Kubernetes request and no record.
    kube = FakeKube(clock=clock).start()
    stop = threading.Event()
    github = _ScriptedGitHub(stop.set)
    records = []
    try:
        creds = KubeCredentials(api_base=kube.base_url, bearer_token="sa", ca_bundle=None, namespace="ci")
        with closing(KubeClient(creds, "gha-runner", max_replicas=1)) as kube_client:
            loop = ReconcileLoop(github, kube_client, Policy(), clock, REPO, stop)
            assert loop.reconcile_once(clock.now()) is None
        stop.clear()
        code = _serve(clock, github, kube, stop, records.append)
    finally:
        kube.close()
    assert code == EXIT_OK
    assert records == []
    assert sum(kube.requests_by_method.values()) == 0


def test_a_poll_that_overruns_its_interval_skips_the_missed_ticks(clock):
    # The first poll takes 150 s of a 60 s interval: the ticks at 60 and 120
    # are skipped, and the loop waits for the one at 180.
    kube = FakeKube(clock=clock).start()
    stop = threading.Event()
    github = _ScriptedGitHub(lambda: clock.advance(150.0))
    records = []

    def observe(record):
        records.append(record)
        stop.set()

    try:
        code = _serve(clock, github, kube, stop, observe)
    finally:
        kube.close()
    assert code == EXIT_OK
    assert [r.tick for r in records] == [0.0]
    assert clock.waits == [180.0]


def test_idle_polls_draw_on_the_rate_limit_only_for_the_first_answers(clock):
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(clock=clock).start()
    try:
        code, records = _run_polls(clock, github, kube, polls=30)
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    assert len(records) == 30 and clock.now() < 3600  # one rate-limit window
    # The two run listings of the first poll are charged; every later poll
    # is answered 304, which is not.
    assert {r.github_rate_limit_remaining for r in records} == {5000 - 2}
    assert github.charged_request_count == 2
    # No last-active: the first poll, which knows no count yet, starts a
    # keepalive, and the 15 polls at 1 replica that follow list in-progress
    # runs too. Every other poll lists only the queued ones.
    assert github.api_request_count == 30 + 1 + 15


def test_secondary_rate_limit_holds_without_exiting(clock):
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(clock=clock).start()
    kube.apply_scale(1)  # a live runner that the outage must not scale down
    replica_writes = []
    kube.on_scale_write = lambda at, replicas: replica_writes.append(replicas)
    github.set_fault("secondary_rate_limit", 30)
    try:
        code, records = _run_polls(clock, github, kube, polls=4)
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    assert [(r.desired, r.reason, r.wrote_scale) for r in records] == [(1, Reason.HOLD, False)] * 4
    assert [r.consecutive_github_errors for r in records] == [1, 2, 3, 4]
    # No replica write, accepted or refused; the keepalive's annotation
    # PATCH may still go out.
    assert (replica_writes, kube.scale_patch_violations, kube.spec_replicas) == ([], [], 1)


DEPLOYMENT_PATH = "/apis/apps/v1/namespaces/ci/deployments/gha-runner"


def _requests_per_poll(monkeypatch) -> tuple[list[list[tuple[str, str]]], Callable]:
    """An ``on_record`` that files the method and path of each Kubernetes
    request each poll sent."""
    sent: list[tuple[str, str]] = []
    handle = fake_kube_module._handle

    def recording_handle(kube, request):
        sent.append((request.method, request.path))
        return handle(kube, request)

    monkeypatch.setattr(fake_kube_module, "_handle", recording_handle)
    per_poll: list[list[tuple[str, str]]] = []

    def on_record(record):
        per_poll.append(list(sent))
        sent.clear()

    return per_poll, on_record


def _requests_by_api_per_poll(monkeypatch) -> tuple[list[list[tuple[str, str]]], Callable]:
    """An ``on_record`` that files each request each poll sent: GitHub's by
    the run listing's status or as ``jobs``, Kubernetes' by method."""
    sent: list[tuple[str, str]] = []
    kube_handle, github_handle = fake_kube_module._handle, fake_github_module._handle

    def noting_kube_handle(kube, request):
        sent.append(("kube", request.method))
        return kube_handle(kube, request)

    def noting_github_handle(github, request):
        sent.append(("github", request.query.get("status", "jobs")))
        return github_handle(github, request)

    monkeypatch.setattr(fake_kube_module, "_handle", noting_kube_handle)
    monkeypatch.setattr(fake_github_module, "_handle", noting_github_handle)
    per_poll: list[list[tuple[str, str]]] = []

    def on_record(record):
        per_poll.append(list(sent))
        sent.clear()

    return per_poll, on_record


def test_idle_polls_read_scale_and_never_list_pods(clock, monkeypatch):
    # Zero replicas, no jobs, and activity recorded now: no keepalive falls due.
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(
        clock=clock,
        initial_annotations={ANNOTATION_LAST_ACTIVE: to_rfc3339(clock.now())},
    ).start()
    per_poll, on_record = _requests_per_poll(monkeypatch)
    try:
        code, records = _run_polls(clock, github, kube, polls=20, on_record=on_record)
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    assert {(r.desired, r.reason, r.wrote_scale) for r in records} == {(0, Reason.IDLE, False)}
    # One GET of the Deployment at the first poll, which also carries the
    # annotations, and one more min_dwell (15 polls) later; the idle polls
    # in between already know it holds 0 replicas. No pod list, no /scale read.
    assert [len(poll) for poll in per_poll] == [1] + [0] * 14 + [1] + [0] * 4
    assert {request for poll in per_poll for request in poll} == {("GET", DEPLOYMENT_PATH)}
    assert {r.observed_replicas for r in records} == {0}


def test_keepalive_dwell_reads_the_deployment_at_its_first_two_polls_and_its_end(clock, monkeypatch):
    # No annotations: the keepalive is due at once, so the manager scales to
    # 1, holds the runner for min_dwell (15 polls), then scales back to 0.
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(clock=clock).start()
    replica_writes = []
    kube.on_scale_write = lambda at, replicas: replica_writes.append(replicas)
    per_poll, file_requests = _requests_per_poll(monkeypatch)
    stamps = []  # the last-active annotation after each poll

    def on_record(record):
        file_requests(record)
        stamps.append(kube.annotations.get(ANNOTATION_LAST_ACTIVE))

    try:
        code, records = _run_polls(clock, github, kube, polls=20, on_record=on_record)
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    assert (replica_writes, kube.scale_patch_violations) == ([1, 0], [])
    # Pods turn Running and Ready the moment they are created here, so
    # readyReplicas equals the spec.replicas each poll observed.
    assert [r.observed_replicas for r in records] == [0] + [1] * 15 + [0] * 4
    down = records[15]
    assert (down.desired, down.wrote_scale) == (0, True)
    min_dwell = Policy().min_dwell
    for poll, (record, sent, stamp) in enumerate(zip(records, per_poll, stamps)):
        # A GET at the scale-up, at the next poll, which first sees the
        # runner ready and sends last-active, and at the scale-down. The
        # polls in between keep 1 replica with last-active under min_dwell
        # old; the idle polls after it know the Deployment holds 0 replicas.
        reads = [("GET", DEPLOYMENT_PATH)] if poll in (0, 1, 15) else []
        assert [request for request in sent if request[0] == "GET"] == reads
        if record.tick < down.tick:
            # While the runner stays up, the stamp trails by under min_dwell.
            if record.observed_replicas >= 1:
                assert 0 <= record.decided_at - from_rfc3339(stamp) < min_dwell
            else:
                assert stamp is None
        else:
            # The scale-to-zero poll writes its own time, exactly.
            assert stamp == to_rfc3339(down.decided_at)


def test_a_skipped_idle_poll_reports_the_replicas_it_knows(clock, monkeypatch):
    # The second poll sends no Kubernetes request; /status and the log line
    # still report the 0 replicas the first poll read, not null.
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(clock=clock, initial_annotations={ANNOTATION_LAST_ACTIVE: to_rfc3339(clock.now())}).start()
    per_poll, on_record = _requests_per_poll(monkeypatch)
    try:
        code, records = _run_polls(clock, github, kube, polls=2, on_record=on_record)
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    assert [len(poll) for poll in per_poll] == [1, 0]
    status = records[1].as_status_dict()
    assert (status["observed_replicas"], status["consecutive_kube_errors"]) == (0, 0)
    assert status["last_decision"] == {"target_replicas": 0, "reason": "idle"}
    assert records[1].as_log_dict() == {
        "time": to_rfc3339(60.0),
        "queued": 0,
        "in_progress": 0,
        "observed": 0,
        "desired": 0,
        "reason": "idle",
        "wrote_scale": False,
    }


def test_a_hand_scale_up_while_idle_is_undone_at_the_next_read(clock):
    # Someone scales the Deployment to 1 right after the first poll read it.
    # The idle polls do not look again until min_dwell later; that poll sees
    # the ready runner, moves last-active to its own time and writes 0.
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(clock=clock, initial_annotations={ANNOTATION_LAST_ACTIVE: to_rfc3339(clock.now())}).start()
    replica_writes = []
    kube.on_scale_write = lambda at, replicas: replica_writes.append((at, replicas))

    def on_record(record):
        if record.tick == 0.0:
            kube.apply_scale(1)  # not a patch of the manager's: on_scale_write stays silent

    try:
        code, records = _run_polls(clock, github, kube, polls=20, on_record=on_record)
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    policy = Policy()
    undone = next(r for r in records if r.wrote_scale)
    assert replica_writes == [(undone.decided_at, 0)]
    assert undone.decided_at <= policy.min_dwell + policy.poll_interval
    assert (undone.observed_replicas, undone.desired, undone.reason) == (1, 0, Reason.IDLE)
    assert kube.annotations[ANNOTATION_LAST_ACTIVE] == to_rfc3339(undone.decided_at)
    assert kube.spec_replicas == 0


def test_a_hand_scale_up_whose_runner_is_busy_is_listed_before_the_read_and_kept(clock, monkeypatch):
    # Right after the first poll read 0 replicas, someone scales the
    # Deployment to 1 and its runner takes a matching job. The polls that
    # hold a fresh 0 list only the queued runs. The stale one lists the
    # in-progress runs too, reads the Deployment after GitHub, finds the
    # replica and keeps the busy pod: without the in-progress listing it
    # would decide idle 0 and cut it.
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(clock=clock, initial_annotations={ANNOTATION_LAST_ACTIVE: to_rfc3339(clock.now())}).start()
    replica_writes = []
    kube.on_scale_write = lambda at, replicas: replica_writes.append((at, replicas))
    per_poll, note_requests = _requests_by_api_per_poll(monkeypatch)

    def on_record(record):
        note_requests(record)
        if record.tick == 0.0:
            kube.apply_scale(1)  # not a patch of the manager's: on_scale_write stays silent
            github.register_runner("gha-runner-1", LABELS)
            github.enqueue_job(LABELS, duration=86400)
            assert github.claim_job("gha-runner-1") is not None

    try:
        code, records = _run_polls(clock, github, kube, polls=20, on_record=on_record)
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    assert (replica_writes, kube.spec_replicas) == ([], 1)
    assert per_poll[0] == [("github", "in_progress"), ("github", "queued"), ("kube", "GET")]
    for record, requests in zip(records[1:15], per_poll[1:15]):
        assert requests == [("github", "queued")]
        assert (record.in_progress, record.observed_replicas, record.desired, record.reason) == (0, 0, 0, Reason.IDLE)
    stale = records[15]
    assert stale.decided_at - records[0].decided_at == Policy().min_dwell
    # The in-progress run's job fills max_runners, so the queued runs go unlisted.
    assert per_poll[15] == [("github", "in_progress"), ("github", "jobs"), ("kube", "GET")]
    assert (stale.in_progress, stale.observed_replicas, stale.desired, stale.reason) == (1, 1, 1, Reason.BUSY)
    assert {(r.in_progress, r.desired, r.wrote_scale) for r in records[15:]} == {(1, 1, False)}


def test_a_github_poll_that_outlasts_a_fresh_zero_leaves_the_read_to_the_next_tick(clock):
    # As above, but the GitHub poll of the 840 s tick, which holds a fresh 0
    # and so lists only the queued runs, takes 120 s: past the instant that
    # 0 turns min_dwell old. That poll still reads nothing, for a read then
    # would find the replica with no job of it listed and cut the busy pod.
    # The next tick, at 960 s as the poll ends, lists the in-progress runs,
    # reads and keeps the pod.
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(clock=clock, initial_annotations={ANNOTATION_LAST_ACTIVE: to_rfc3339(clock.now())}).start()
    replica_writes = []
    kube.on_scale_write = lambda at, replicas: replica_writes.append((at, replicas))
    stop = threading.Event()
    records = []

    def observe(record):
        records.append(record)
        if record.tick == 0.0:
            kube.apply_scale(1)
            github.register_runner("gha-runner-1", LABELS)
            github.enqueue_job(LABELS, duration=86400)
            assert github.claim_job("gha-runner-1") is not None
        if len(records) == 17:
            stop.set()

    try:
        with closing(GitHubClient(github.base_url, "t", clock=clock)) as github_client:
            listing = github_client.list_outstanding_jobs

            def slow_at_840(*args):
                jobs = listing(*args)
                if clock.now() == 840.0:
                    clock.advance(120.0)
                return jobs

            github_client.list_outstanding_jobs = slow_at_840
            code = _serve(clock, github_client, kube, stop, observe)
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    assert (replica_writes, kube.spec_replicas) == ([], 1)
    slow, next_tick = records[14], records[15]
    assert (slow.tick, slow.decided_at, slow.observed_at, slow.in_progress, slow.desired) == (840.0, 960.0, 0.0, 0, 0)
    assert (next_tick.tick, next_tick.observed_at, next_tick.in_progress) == (960.0, 960.0, 1)
    assert {(r.observed_replicas, r.desired, r.reason) for r in records[15:]} == {(1, 1, Reason.BUSY)}


@pytest.mark.parametrize("replicas", [0, 1])
def test_a_job_busy_on_a_foreign_runner_counts_only_while_the_deployment_has_a_replica(clock, replicas):
    # After the first poll, a runner that is not the Deployment's takes a
    # matching job. At 0 replicas (last-active recorded now) no runner of
    # the Deployment can hold it: the stale poll at 900 s lists its run
    # and reads 0 replicas, and a known 0 counts no job in progress, so the
    # count stays 0. At 1 replica (a keepalive, as last-active is unset)
    # the job counts as demand and keeps the pod past the dwell, though no
    # pod of the Deployment runs it.
    github = FakeGitHub(expected_token="t", clock=clock).start()
    annotations = {ANNOTATION_LAST_ACTIVE: to_rfc3339(clock.now())} if replicas == 0 else None
    kube = FakeKube(clock=clock, initial_annotations=annotations).start()
    replica_writes = []
    kube.on_scale_write = lambda at, written: replica_writes.append(written)

    def on_record(record):
        if record.tick == 0.0:
            github.register_runner("elsewhere", LABELS)
            github.enqueue_job(LABELS, duration=86400)
            assert github.claim_job("elsewhere") is not None

    try:
        code, records = _run_polls(clock, github, kube, polls=20, on_record=on_record)
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    if replicas == 0:
        assert replica_writes == []
        assert {(r.queued, r.in_progress, r.desired, r.reason) for r in records} == {(0, 0, 0, Reason.IDLE)}
        # Both listings at the first poll; at 900 s the in-progress listing
        # and the run, whose job fills max_runners; else the queued listing.
        assert github.api_request_count == 2 + 2 + 18
    else:
        assert replica_writes == [1]
        assert {(r.queued, r.in_progress, r.desired, r.reason) for r in records[1:]} == {(0, 1, 1, Reason.BUSY)}


def test_a_queued_job_in_a_run_in_progress_elsewhere_scales_up_from_zero_within_min_dwell(clock):
    # After the first poll reads 0 replicas, a run comes in with two jobs: a
    # hosted one, which a hosted runner takes at once, and a matching one,
    # which waits. The run is in progress, so the polls that hold a fresh 0
    # and list only queued runs miss the job. The stale poll, min_dwell after
    # the read, lists the in-progress runs too: it counts the queued job and
    # scales up.
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(clock=clock, initial_annotations={ANNOTATION_LAST_ACTIVE: to_rfc3339(clock.now())}).start()
    replica_writes = []
    kube.on_scale_write = lambda at, replicas: replica_writes.append((at, replicas))

    def on_record(record):
        if record.tick == 0.0:
            hosted, matching = github.enqueue_job(LABELS, duration=86400, jobs_in_run=2)
            hosted.labels = ["ubuntu-latest"]
            github.register_runner("hosted", ["ubuntu-latest"])
            assert github.claim_job("hosted") is hosted
            assert github.runs()[0][1] == "in_progress" and matching.status == "queued"

    try:
        code, records = _run_polls(clock, github, kube, polls=16, on_record=on_record)
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    assert replica_writes == [(900.0, 1)]
    assert {(r.queued, r.desired, r.reason) for r in records[1:15]} == {(0, 0, Reason.IDLE)}
    assert [(r.tick, r.queued, r.in_progress, r.observed_replicas, r.desired, r.reason) for r in records[15:]] == [
        (900.0, 1, 0, 0, 1, Reason.DEMAND),
    ]


def test_a_kube_401_that_starts_while_idle_still_exits():
    # The first poll reads the Deployment; the fault starts a second later.
    # The idle polls send nothing until min_dwell after that read, whose
    # poll is the first to fail; three failed polls in a row end the manager.
    script = ScenarioScript(
        horizon=3600,
        events=[ScenarioEvent(at=1, kind="kube_fault", payload={"status": 401})],
        initial_last_active=0,
    )
    result = run_scenario(script)
    assert result.manager_exit_codes[-1] == EXIT_CREDENTIALS
    records = [entry.detail for entry in result.trace.select("manager", "decision")]
    policy = result.policy
    first_failed = next(r for r in records if r.consecutive_kube_errors)
    assert first_failed.tick - SIM_EPOCH <= 1 + policy.min_dwell
    assert [r.consecutive_kube_errors for r in records] == [0] * 15 + [1, 2]
    # A skipped poll reports the replicas it knows; null only a failed read.
    assert [r.observed_replicas for r in records] == [0] * 15 + [None, None]
    assert result.kube_requests == {"GET": 4}


def test_a_deployment_deleted_while_idle_exits_at_the_next_read():
    # The API server answers a GET of a deleted Deployment 404.
    script = ScenarioScript(
        horizon=3600,
        events=[ScenarioEvent(at=1, kind="kube_fault", payload={"status": 404})],
        initial_last_active=0,
    )
    result = run_scenario(script)
    assert result.manager_exit_codes[-1] == EXIT_CONFIG
    # Fifteen idle polls, the first read included; the read min_dwell later exits.
    assert [tick for tick, _, _ in result.decisions] == [k * 60.0 for k in range(15)]
    assert result.kube_requests == {"GET": 2}


def test_a_skipped_busy_poll_reports_when_its_count_was_last_read(clock, monkeypatch):
    # A keepalive: the first poll reads 0 and writes 1, the second reads the
    # ready runner, and the third, which keeps 1 replica, sends nothing. Its
    # record reports the count and the time of the read behind it.
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(clock=clock).start()
    per_poll, on_record = _requests_per_poll(monkeypatch)
    try:
        code, records = _run_polls(clock, github, kube, polls=3, on_record=on_record)
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    assert [len(poll) for poll in per_poll] == [2, 2, 0]
    assert [(r.observed_replicas, r.observed_at) for r in records] == [(0, 0.0), (1, 60.0), (1, 60.0)]
    status = records[2].as_status_dict()
    assert (status["observed_replicas"], status["observed_at"]) == (1, to_rfc3339(60.0))
    assert status["last_decision"] == {"target_replicas": 1, "reason": "keepalive"}
    assert records[2].as_log_dict() == {
        "time": to_rfc3339(120.0),
        "queued": 0,
        "in_progress": 0,
        "observed": 1,
        "desired": 1,
        "reason": "keepalive",
        "wrote_scale": False,
    }


def test_a_hand_scale_down_during_demand_is_undone_at_the_next_read(clock):
    # A ready runner and a job nobody claims. Someone scales the Deployment
    # to 0 right after the first poll read it and stamped last-active. The
    # busy polls do not look again until that stamp is min_dwell old; that
    # poll sees no replica and writes 1 again.
    github = FakeGitHub(expected_token="t", clock=clock).start()
    github.enqueue_job(LABELS, duration=7200.0)
    kube = FakeKube(clock=clock).start()
    kube.apply_scale(1)
    replica_writes = []
    kube.on_scale_write = lambda at, replicas: replica_writes.append((at, replicas))

    def on_record(record):
        if record.tick == 0.0:
            kube.apply_scale(0)  # not a patch of the manager's: on_scale_write stays silent

    try:
        code, records = _run_polls(clock, github, kube, polls=20, on_record=on_record)
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    policy = Policy()
    undone = next(r for r in records if r.wrote_scale)
    assert replica_writes == [(undone.decided_at, 1)]
    assert undone.decided_at <= policy.min_dwell + policy.poll_interval
    assert (undone.observed_replicas, undone.desired, undone.reason) == (0, 1, Reason.DEMAND)
    assert kube.spec_replicas == 1


def _busy_at_the_cap(clock, max_runners: int, jobs: int) -> tuple[FakeGitHub, FakeKube]:
    """The Deployment at ``max_runners`` replicas, each runner holding one of
    ``jobs`` long matching jobs, and last-active recorded now."""
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(clock=clock, initial_annotations={ANNOTATION_LAST_ACTIVE: to_rfc3339(clock.now())}).start()
    kube.apply_scale(max_runners)
    for _ in range(jobs):
        github.enqueue_job(LABELS, duration=86400)
    for i in range(1, max_runners + 1):
        github.register_runner(f"gha-runner-{i}", LABELS)
        assert github.claim_job(f"gha-runner-{i}") is not None
    return github, kube


def test_a_hand_scale_down_at_the_cap_is_undone_at_the_next_stale_read(clock, monkeypatch):
    # max_runners 4: four runners each hold one of six long jobs. Right after
    # the first poll read 4 replicas, someone scales the Deployment to 2, and
    # GitHub puts the two removed runners' jobs back in the queue. The polls
    # under min_dwell hold a fresh count at the cap: each stops at the first
    # job in progress, decides busy 4 and sends no Kubernetes request. The
    # stale poll at 900 s lists in full, reads 2 replicas and writes 4 for the
    # four jobs that wait. Stopping at the first job in progress there would
    # decide busy 2 and leave them waiting.
    github, kube = _busy_at_the_cap(clock, max_runners=4, jobs=6)
    replica_writes = []
    kube.on_scale_write = lambda at, replicas: replica_writes.append((at, replicas))
    per_poll, note_requests = _requests_by_api_per_poll(monkeypatch)

    def on_record(record):
        note_requests(record)
        if record.tick == 0.0:
            kube.apply_scale(2)  # not a patch of the manager's: on_scale_write stays silent
            assert github.deregister_runner("gha-runner-3") and github.deregister_runner("gha-runner-4")

    try:
        code, records = _run_polls(clock, github, kube, polls=16, on_record=on_record, policy=Policy(max_runners=4))
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    for record, requests in zip(records[1:15], per_poll[1:15]):
        assert requests == [("github", "in_progress"), ("github", "jobs")]
        assert (record.queued, record.in_progress, record.observed_replicas, record.desired, record.reason) == (
            0, 1, 4, 4, Reason.BUSY
        )
    stale = records[15]
    assert stale.decided_at == Policy().min_dwell
    listing = [("github", "in_progress"), *[("github", "jobs")] * 2, ("github", "queued"), *[("github", "jobs")] * 2]
    assert per_poll[15] == [*listing, ("kube", "GET"), ("kube", "PATCH")]
    assert (stale.queued, stale.in_progress, stale.observed_replicas, stale.desired, stale.reason) == (
        2, 2, 2, 4, Reason.DEMAND
    )
    assert (replica_writes, kube.spec_replicas) == ([(900.0, 4)], 4)


def test_a_github_poll_that_outlasts_a_fresh_count_at_the_cap_leaves_the_read_to_the_next_tick(clock, monkeypatch):
    # max_runners 2 and both runners busy. The GitHub poll of the 840 s
    # tick holds a fresh count at the cap, so it stops at the first job in
    # progress; it takes 120 s, past the instant the 0 s read turns min_dwell
    # old. That poll decides busy and still reads nothing: a read would need
    # the full listing it did not make. The next tick, at 960 s as the poll
    # ends, lists both jobs and reads.
    github, kube = _busy_at_the_cap(clock, max_runners=2, jobs=2)
    replica_writes = []
    kube.on_scale_write = lambda at, replicas: replica_writes.append((at, replicas))
    per_poll, on_record = _requests_by_api_per_poll(monkeypatch)
    stop = threading.Event()
    records = []

    def observe(record):
        records.append(record)
        on_record(record)
        if len(records) == 17:
            stop.set()

    try:
        with closing(GitHubClient(github.base_url, "t", clock=clock)) as github_client:
            listing = github_client.list_outstanding_jobs

            def slow_at_840(*args):
                jobs = listing(*args)
                if clock.now() == 840.0:
                    clock.advance(120.0)
                return jobs

            github_client.list_outstanding_jobs = slow_at_840
            code = _serve(clock, github_client, kube, stop, observe, Policy(max_runners=2))
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    assert (replica_writes, kube.spec_replicas) == ([], 2)
    slow, next_tick = records[14], records[15]
    assert (slow.tick, slow.decided_at, slow.observed_at, slow.in_progress, slow.reason) == (
        840.0, 960.0, 0.0, 1, Reason.BUSY
    )
    assert per_poll[14] == [("github", "in_progress"), ("github", "jobs")]
    assert (next_tick.tick, next_tick.observed_at, next_tick.in_progress, next_tick.reason) == (
        960.0, 960.0, 2, Reason.BUSY
    )
    assert per_poll[15] == [("github", "in_progress"), ("github", "jobs"), ("github", "jobs"), ("kube", "GET")]


def _busy_script(fault: int) -> ScenarioScript:
    """A job that outlasts the run claims a runner from the 120 s poll on;
    a ``kube_fault`` of status ``fault`` starts at 200 s, mid-demand."""
    return ScenarioScript(
        horizon=3600,
        events=[
            ScenarioEvent(at=10, kind="enqueue_job", payload={"labels": LABELS, "duration": 7200}),
            ScenarioEvent(at=200, kind="kube_fault", payload={"status": fault}),
        ],
        pod_startup_delay=20,
        initial_last_active=0,
    )


def test_a_kube_401_that_starts_during_demand_still_exits():
    # Reads at 0 s; the 60 s scale-up comes under min_dwell after it, so it
    # writes without reading. last-active from the start puts the keepalive
    # days off, so the busy polls send nothing, though no read has seen the
    # runner ready, until the 0 s read is min_dwell old, at 900 s: the first
    # failed read. Three failed polls in a row end the manager.
    result = run_scenario(_busy_script(401))
    assert result.manager_exit_codes[-1] == EXIT_CREDENTIALS
    records = [entry.detail for entry in result.trace.select("manager", "decision")]
    policy = result.policy
    first_failed = next(r for r in records if r.consecutive_kube_errors)
    assert first_failed.tick - SIM_EPOCH <= 200 + policy.min_dwell + policy.poll_interval
    assert [r.consecutive_kube_errors for r in records] == [0] * 15 + [1, 2]
    assert [r.observed_replicas for r in records] == [0, 0] + [1] * 13 + [None, None]
    assert result.kube_requests == {"GET": 4, "PATCH": 1}


def test_a_deployment_deleted_during_demand_exits_at_the_next_read():
    # The same busy run: a read at 0 s, a write without a read at the 60 s
    # scale-up; the read at 900 s, min_dwell after the last one, meets the
    # 404 and exits.
    result = run_scenario(_busy_script(404))
    assert result.manager_exit_codes[-1] == EXIT_CONFIG
    policy = result.policy
    assert [tick for tick, _, _ in result.decisions] == [k * 60.0 for k in range(15)]
    assert 15 * 60.0 <= 200 + policy.min_dwell + policy.poll_interval
    assert result.kube_requests == {"GET": 2, "PATCH": 1}


def _demand_script(*jobs: tuple[float, float], horizon: float, events=(), policy=None) -> ScenarioScript:
    """Jobs enqueued at ``(at, duration)``, then ``events``; last-active
    recorded at the start."""
    enqueued = [ScenarioEvent(at, "enqueue_job", {"labels": LABELS, "duration": duration}) for at, duration in jobs]
    return ScenarioScript(
        horizon=horizon, events=[*enqueued, *events], pod_startup_delay=20, initial_last_active=0, policy=policy or {}
    )


def _log_lines(result) -> dict[float, dict]:
    return {entry.at: entry.detail.as_log_dict() for entry in result.trace.select("manager", "decision")}


def _log_line(
    at: float, queued: int | None, in_progress: int | None, observed: int | None, desired: int, wrote: bool, reason="demand"
) -> dict:
    return {
        "time": to_rfc3339(SIM_EPOCH + at),
        "queued": queued,
        "in_progress": in_progress,
        "observed": observed,
        "desired": desired,
        "reason": reason,
        "wrote_scale": wrote,
    }


def _hold_line(at: float, observed: int | None, desired: int) -> dict:
    return _log_line(at, None, None, observed, desired, wrote=False, reason="hold")


def test_a_scale_up_under_min_dwell_after_an_idle_read_patches_without_a_read(monkeypatch):
    # The 0 s poll reads 0 replicas; the 60 s poll, the job's first, already
    # knows them and writes 1 with one PATCH. The 120 s poll sends nothing,
    # though no read has seen the runner ready: last-active from the start
    # puts the keepalive days past the next stale read.
    sent = kube_requests_by_time(monkeypatch)
    script = _demand_script((10, 7200), horizon=121)
    result = run_scenario(script)
    assert dict(sent) == {0.0: [("GET", None)], 60.0: [("PATCH", {"spec": {"replicas": 1}})]}
    lines = _log_lines(result)
    assert lines[60.0] == _log_line(60.0, queued=1, in_progress=0, observed=0, desired=1, wrote=True)
    assert lines[120.0] == _log_line(120.0, queued=0, in_progress=1, observed=1, desired=1, wrote=False, reason="busy")
    assert_agrees_with_oracle(script, result)


def test_a_fresh_change_between_counts_of_one_or_more_patches_without_a_read(monkeypatch):
    # max_runners 3. The 0 s read is the only one: it is under min_dwell old
    # and last-active from the start puts the keepalive days off, so the
    # 240 s poll, which counts a second job, writes 2 replicas with one PATCH.
    sent = kube_requests_by_time(monkeypatch)
    script = _demand_script((10, 7200), (200, 7200), horizon=301, policy={"max_runners": 3})
    result = run_scenario(script)
    assert sent[240.0] == [("PATCH", {"spec": {"replicas": 2}})]
    assert result.kube_requests == {"GET": 1, "PATCH": 2}
    assert _log_lines(result)[240.0] == _log_line(240.0, queued=1, in_progress=1, observed=1, desired=2, wrote=True)
    assert_agrees_with_oracle(script, result)


def test_a_scale_to_zero_reads_first_and_writes_the_exact_stamp(monkeypatch):
    # The job runs from 80 s to 280 s; the busy polls at 180 s and 240 s send
    # nothing. The 300 s poll decides 0: it reads, sees the runner ready, and
    # its PATCH carries its own time as last-active.
    sent = kube_requests_by_time(monkeypatch)
    script = _demand_script((10, 200), horizon=301)
    result = run_scenario(script)
    assert (sent[180.0], sent[240.0]) == ([], [])
    stamp = {ANNOTATION_LAST_ACTIVE: to_rfc3339(SIM_EPOCH + 300)}
    assert sent[300.0] == [("GET", None), ("PATCH", {"spec": {"replicas": 0}, "metadata": {"annotations": stamp}})]
    assert result.writes == [(60.0, 1), (300.0, 0)]
    assert_agrees_with_oracle(script, result)


def test_the_poll_after_a_scale_up_from_zero_reads_only_if_a_keepalive_may_fall_due(monkeypatch):
    # Up at 60 s, down at 300 s after a read that saw the runner ready and
    # stamped last-active, and up again at 360 s with one PATCH. The 420 s
    # poll reads only when the keepalive, due at 300 s + force_interval -
    # min_dwell, could fall due by 1320 s: the 300 s read plus min_dwell and
    # two polls. When it does, each read that sees the runner moves the
    # stamp and the bound alike, so every poll while the runner is up reads.
    sent = kube_requests_by_time(monkeypatch)
    for force_interval, reads in [(None, False), (1921, False), (1920, True)]:
        sent.clear()
        policy = {"min_dwell": 900, "force_interval": force_interval} if force_interval else {}
        script = _demand_script((10, 200), (310, 7200), horizon=481, policy=policy)
        result = run_scenario(script)
        read = [("GET", None)] if reads else []
        assert (sent[360.0], sent[420.0], sent[480.0]) == ([("PATCH", {"spec": {"replicas": 1}})], read, read), policy
        lines = _log_lines(result)
        assert lines[360.0] == _log_line(360.0, queued=1, in_progress=0, observed=0, desired=1, wrote=True)
        assert lines[420.0] == _log_line(
            420.0, queued=0, in_progress=1, observed=1, desired=1, wrote=False, reason="busy"
        )
        # The tight policy reads at 0 s and at every poll at 1 replica: 120 s
        # to 300 s, 420 s and 480 s.
        assert result.kube_requests == {"GET": 7 if reads else 2, "PATCH": 3}
        assert_agrees_with_oracle(script, result)


def test_a_failed_write_without_a_read_reports_observed_null_and_the_next_poll_reads(monkeypatch):
    # Kubernetes answers 500 from 30 s to 90 s. The 60 s scale-up writes
    # without reading and fails: nothing was read, so its record reports
    # null. The 120 s poll reads before it writes again.
    sent = kube_requests_by_time(monkeypatch)
    faults = [ScenarioEvent(30, "kube_fault", {"status": 500}), ScenarioEvent(90, "kube_recover")]
    script = _demand_script((10, 7200), horizon=121, events=faults)
    result = run_scenario(script)
    scale_up = ("PATCH", {"spec": {"replicas": 1}})
    assert (sent[60.0], sent[120.0]) == ([scale_up], [("GET", None), scale_up])
    records = {entry.at: entry.detail for entry in result.trace.select("manager", "decision")}
    assert [records[at].consecutive_kube_errors for at in (60.0, 120.0)] == [1, 0]
    failed = _log_line(60.0, queued=1, in_progress=0, observed=None, desired=1, wrote=False)
    assert records[60.0].as_log_dict() == failed
    assert (records[60.0].observed_at, records[120.0].observed_replicas) == (None, 0)
    assert result.writes == [(120.0, 1)]
    assert_agrees_with_oracle(script, result)


def test_a_github_outage_during_demand_reads_only_when_the_held_count_goes_stale(monkeypatch):
    # GitHub answers 503 from 200 s to 1100 s while a runner works. The 0 s
    # read is the last before the outage, and the keepalive is days off, so
    # the holds from 240 s send nothing until that read is min_dwell old. At
    # 900 s that hold reads once, sees the runner ready and keeps the set
    # last-active, and the holds after it send nothing again.
    sent = kube_requests_by_time(monkeypatch)
    faults = [ScenarioEvent(200, "github_fault", {"status": 503}), ScenarioEvent(1100, "github_recover")]
    script = _demand_script((10, 7200), horizon=1141, events=faults)
    result = run_scenario(script)
    assert dict(sent) == {
        0.0: [("GET", None)],
        60.0: [("PATCH", {"spec": {"replicas": 1}})],
        900.0: [("GET", None)],
    }
    lines = _log_lines(result)
    assert [at for at, line in lines.items() if line["reason"] == "hold"] == [k * 60.0 for k in range(4, 19)]
    assert lines[840.0] == _hold_line(840.0, observed=1, desired=1)
    assert lines[900.0] == _hold_line(900.0, observed=1, desired=1)
    records = {entry.at: entry.detail for entry in result.trace.select("manager", "decision")}
    observed_at = [records[at].observed_at - SIM_EPOCH for at in (240.0, 840.0, 900.0, 1080.0)]
    assert observed_at == [60.0, 60.0, 900.0, 900.0]
    assert records[1080.0].consecutive_github_errors == 15
    assert result.writes == [(60.0, 1)]
    assert_agrees_with_oracle(script, result)


def test_an_incarnation_that_never_wrote_holds_the_count_it_read(monkeypatch):
    # The first manager reads at 0 s and scales up at 60 s without a read;
    # its successor starts at 300 s, reads the ready runner and writes nothing. GitHub fails from 330 s: its
    # holds keep the 1 replica it read and send nothing while that count is
    # fresh. Kubernetes fails from 900 s; the 1200 s hold's read, min_dwell
    # after the 300 s one, fails, and it still holds 1, not 0. The 1320 s
    # read, after recovery, sees the runner ready and keeps the set stamp.
    sent = kube_requests_by_time(monkeypatch)
    events = [
        ScenarioEvent(270, "restart_manager", {"downtime": 30}),
        ScenarioEvent(330, "github_fault", {"status": 503}),
        ScenarioEvent(900, "kube_fault", {"status": 500}),
        ScenarioEvent(1300, "kube_recover"),
        ScenarioEvent(1400, "github_recover"),
    ]
    script = _demand_script((10, 7200), horizon=1441, events=events)
    result = run_scenario(script)
    assert dict(sent) == {
        0.0: [("GET", None)],
        60.0: [("PATCH", {"spec": {"replicas": 1}})],
        300.0: [("GET", None)],
        1200.0: [("GET", None)],
        1260.0: [("GET", None)],
        1320.0: [("GET", None)],
    }
    lines = _log_lines(result)
    assert lines[1140.0] == _hold_line(1140.0, observed=1, desired=1)
    failed_reads = (1200.0, 1260.0)
    assert [lines[at] for at in failed_reads] == [_hold_line(at, observed=None, desired=1) for at in failed_reads]
    assert lines[1320.0] == _hold_line(1320.0, observed=1, desired=1)
    records = {entry.at: entry.detail for entry in result.trace.select("manager", "decision")}
    assert [records[at].consecutive_kube_errors for at in (1140.0, 1200.0, 1260.0, 1320.0)] == [0, 1, 2, 0]
    assert result.writes == [(60.0, 1)]
    assert_agrees_with_oracle(script, result)


def test_a_kube_fault_that_starts_mid_outage_is_seen_at_the_next_stale_read(monkeypatch):
    # GitHub fails from 200 s to 2100 s while a runner works, and Kubernetes
    # from 930 s, just after the 900 s hold read the Deployment. The holds
    # that follow hold a fresh count and send nothing; the first to see the
    # fault is the 1800 s read, once the 900 s one is min_dwell old: 870 s
    # on, within min_dwell plus one poll.
    sent = kube_requests_by_time(monkeypatch)
    events = [
        ScenarioEvent(200, "github_fault", {"status": 503}),
        ScenarioEvent(930, "kube_fault", {"status": 500}),
        ScenarioEvent(2100, "github_recover"),
    ]
    script = _demand_script((10, 7200), horizon=2041, events=events)
    result = run_scenario(script)
    assert [at for at in sent if at > 60.0] == [900.0, 1800.0, 1860.0, 1920.0, 1980.0, 2040.0]
    assert result.kube_requests == {"GET": 7, "PATCH": 1}
    records = {entry.at: entry.detail for entry in result.trace.select("manager", "decision")}
    first_seen = next(at for at, record in records.items() if record.consecutive_kube_errors)
    policy = result.policy
    assert first_seen == 1800.0 <= 930.0 + policy.min_dwell + policy.poll_interval
    lines = _log_lines(result)
    assert lines[1740.0] == _hold_line(1740.0, observed=1, desired=1)
    assert lines[1800.0] == _hold_line(1800.0, observed=None, desired=1)
    assert_agrees_with_oracle(script, result)


def _record_last_active_patches(monkeypatch) -> list[str]:
    """The last-active values every KubeClient.write_annotation call sends."""
    sent: list[str] = []
    write_annotation = KubeClient.write_annotation

    def recording(self, annotations):
        if ANNOTATION_LAST_ACTIVE in annotations:
            sent.append(annotations[ANNOTATION_LAST_ACTIVE])
        return write_annotation(self, annotations)

    monkeypatch.setattr(KubeClient, "write_annotation", recording)
    return sent


def test_a_busy_hour_writes_last_active_only_while_it_is_unset(clock, monkeypatch):
    # A ready runner and a job nobody claims: 60 polls of demand for 1, on a
    # Deployment that has no last-active yet.
    github = FakeGitHub(expected_token="t", clock=clock).start()
    github.enqueue_job(LABELS, duration=7200.0)
    kube = FakeKube(clock=clock).start()
    kube.apply_scale(1)
    sent = _record_last_active_patches(monkeypatch)
    try:
        code, records = _run_polls(clock, github, kube, polls=60)
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    assert {(r.observed_replicas, r.desired, r.reason) for r in records} == {(1, 1, Reason.DEMAND)}
    # Written once, at the first poll, because it is unset; while the runner
    # stays wanted nothing else moves it.
    assert sent == [to_rfc3339(records[0].decided_at)]


def test_poll_that_scales_to_zero_writes_the_exact_stamp():
    # Demand from 60 s; the job runs 80 s to 1280 s, so the 1320 s poll
    # decides 0 with the runner still ready. The horizon ends right after
    # that poll, so no later poll can mend a trailing stamp.
    script = ScenarioScript(
        horizon=1321,
        events=[ScenarioEvent(at=10, kind="enqueue_job", payload={"labels": LABELS, "duration": 1200})],
        pod_startup_delay=20,
        initial_last_active=0,
    )
    result = run_scenario(script)
    assert not result.scenario_failed
    assert result.writes == [(60.0, 1), (1320.0, 0)]
    assert result.final_annotations[ANNOTATION_LAST_ACTIVE] == to_rfc3339(SIM_EPOCH + 1320.0)
    assert_agrees_with_oracle(script, result)


class _RunnerKube:
    """A Deployment whose annotations outlive any one manager; its runner is
    ready until ``ready_replicas`` is cleared."""

    def __init__(self):
        self.spec_replicas = self.ready_replicas = 1
        self.annotations: dict[str, str] = {}

    def read_scale(self):
        return DeploymentSnapshot(self.spec_replicas, self.ready_replicas, dict(self.annotations))

    def write_scale(self, replicas):
        self.spec_replicas = replicas
        return replicas

    def write_annotation(self, annotations):
        for key, value in annotations.items():
            if value is None:
                self.annotations.pop(key, None)
            else:
                self.annotations[key] = value


def test_restart_after_an_unseen_runner_exit_keeps_the_keepalive_early(clock, monkeypatch):
    # One incarnation sees the runner ready for ``streak`` polls; the runner
    # then exits while no manager runs. The next incarnation reads the stamp
    # the first one persisted, at its first poll, since a busy runner's
    # last-active is written only while unset: its keepalive falls due early
    # by up to the whole busy stretch, and never late.
    policy = Policy()
    github = FakeGitHub(expected_token="t", clock=clock).start()
    github.enqueue_job(LABELS, duration=1e6, ref="job")
    gh_client = GitHubClient(github.base_url, "t", clock=clock)
    try:
        for streak in range(1, 32):
            kube = _RunnerKube()
            loop = ReconcileLoop(gh_client, kube, policy, clock, REPO, threading.Event())
            for _ in range(streak):
                record = loop.reconcile_once(clock.now())
                assert (record.observed_replicas, record.desired) == (1, 1)
                clock.advance(policy.poll_interval)
            exact = keepalive_due_at(record.decided_at, policy)
            persisted = from_rfc3339(kube.annotations[ANNOTATION_LAST_ACTIVE])

            kube.ready_replicas = 0
            clock.advance(policy.poll_interval)  # downtime
            restarted = ReconcileLoop(gh_client, kube, policy, clock, REPO, threading.Event())
            due = restarted.reconcile_once(clock.now()).keepalive_next_due
            assert 0 <= exact - due, streak
            assert due == keepalive_due_at(persisted, policy), streak
    finally:
        gh_client.close()
        github.close()


def test_a_runner_that_stops_being_ready_unseen_leaves_last_active_at_its_last_sighting(clock):
    # Demand for the one ready runner. A GitHub outage makes the 960 s poll
    # hold; the count it holds is fresh, as the 900 s read is not min_dwell
    # old, so it sends nothing and reports that read. The runner then stops
    # being ready while the busy polls send nothing. The stamp, written once
    # at 0 s while it was unset, never passes the last read that saw the
    # runner ready: the read that first misses it, at 1800 s when the 900 s
    # read is min_dwell old, writes that sighting. That stamp puts the
    # keepalive days off, so the poll after it does not read either.
    policy = Policy()
    github = FakeGitHub(expected_token="t", clock=clock).start()
    github.enqueue_job(LABELS, duration=1e6, ref="job")
    kube = _RunnerKube()
    sightings = []  # when a read saw the runner ready
    read_scale = kube.read_scale

    def read_and_note():
        snapshot = read_scale()
        if snapshot.ready_replicas >= 1:
            sightings.append(clock.now())
        return snapshot

    kube.read_scale = read_and_note
    gh_client = GitHubClient(github.base_url, "t", clock=clock)
    try:
        loop = ReconcileLoop(gh_client, kube, policy, clock, REPO, threading.Event())
        records, stamps = [], []
        for poll in range(32):
            if poll == 16:
                github.set_fault("status", 503.0)
            if poll == 17:
                github.clear_fault()
                kube.ready_replicas = 0
            records.append(loop.reconcile_once(clock.now()))
            stamps.append(from_rfc3339(kube.annotations[ANNOTATION_LAST_ACTIVE]))
            assert stamps[-1] <= sightings[-1]
            clock.advance(policy.poll_interval)
    finally:
        gh_client.close()
        github.close()
    assert sightings == [0.0, 900.0]
    assert [r.decided_at for r in records if r.observed_at == r.decided_at] == [0.0, 900.0, 1800.0]
    assert (records[16].reason, records[16].observed_replicas, records[16].observed_at) == (Reason.HOLD, 1, 900.0)
    assert stamps[:30] == [0.0] * 30
    assert stamps[30:] == [900.0] * 2


def _keepalive_run(due: float, polls: int, on_record=None) -> tuple[SteppingClock, list, list]:
    """run_service with the default policy, from ``SIM_EPOCH``, against a
    Deployment whose last-active stamp makes the keepalive fall due ``due``
    seconds in; the records and the accepted replica writes, both timed in
    seconds since the start."""
    policy = Policy()
    clock = SteppingClock(SIM_EPOCH)
    last_active = SIM_EPOCH + due - (policy.force_interval - policy.min_dwell)
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(clock=clock, initial_annotations={ANNOTATION_LAST_ACTIVE: to_rfc3339(last_active)}).start()
    writes = []
    kube.on_scale_write = lambda at, replicas: writes.append((at - SIM_EPOCH, replicas))
    try:
        code, records = _run_polls(clock, github, kube, polls, on_record and (lambda r: on_record(github, r)))
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    return clock, records, writes


def _ticks(records) -> list[float]:
    return [r.tick - SIM_EPOCH for r in records]


def test_keepalive_starts_when_due_and_ends_min_dwell_later_off_the_grid():
    # The stamp falls due at 150 s, between the ticks at 120 and 180; the
    # 900 s dwell ends at 1050 s, between the ticks at 1020 and 1080.
    clock, records, writes = _keepalive_run(due=150.0, polls=21)
    assert writes == [(150.0, 1), (1050.0, 0)]
    # One poll at each instant, in between the grid's ticks, which stay put.
    grid = [k * 60.0 for k in range(19)]
    assert _ticks(records) == sorted(grid + [150.0, 1050.0])
    assert [t - SIM_EPOCH for t in clock.waits] == _ticks(records)[1:] + [1140.0]
    by_tick = {tick: (r.desired, r.reason, r.wrote_scale) for tick, r in zip(_ticks(records), records)}
    assert by_tick[120.0] == (0, Reason.IDLE, False)
    assert by_tick[150.0] == (1, Reason.KEEPALIVE, True)
    assert by_tick[1020.0] == (1, Reason.KEEPALIVE, False)
    assert by_tick[1050.0] == (0, Reason.IDLE, True)
    # /status announced the activation for the instant its write landed.
    before = [r for r in records if r.tick - SIM_EPOCH < 150.0]
    assert {r.as_status_dict()["keepalive_next_due"] for r in before} == {to_rfc3339(SIM_EPOCH + 150.0)}


def test_a_keepalive_due_on_a_tick_is_that_ticks_poll():
    # Due at 180 s, a tick; the dwell then ends at 1080 s, a tick too.
    clock, records, writes = _keepalive_run(due=180.0, polls=20)
    assert writes == [(180.0, 1), (1080.0, 0)]
    assert _ticks(records) == [k * 60.0 for k in range(20)]
    assert [t - SIM_EPOCH for t in clock.waits] == [k * 60.0 for k in range(1, 21)]


def test_a_failed_poll_at_the_due_instant_holds_until_the_next_tick():
    # GitHub answers 503 to the poll at the due instant only: it holds, and
    # the keepalive starts at the next tick, whose dwell ends on the grid.
    def on_record(github, record):
        if record.tick - SIM_EPOCH == 120.0:
            github.set_fault("status", 503.0)
        else:
            github.clear_fault()

    clock, records, writes = _keepalive_run(due=150.0, polls=21, on_record=on_record)
    assert writes == [(180.0, 1), (1080.0, 0)]
    assert _ticks(records) == sorted([k * 60.0 for k in range(20)] + [150.0])
    held = records[3]
    assert (held.tick - SIM_EPOCH, held.desired, held.reason, held.wrote_scale) == (150.0, 0, Reason.HOLD, False)


def test_a_restart_whose_downtime_covers_the_dwell_end_ends_it_at_the_first_poll():
    # The dwell from 0 s would end at 330 s; no manager runs from 320 s to
    # 365 s, so the next one's first poll scales down. The next keepalive
    # falls due 1470 s after that, half a poll off the new grid, and its
    # dwell ends 330 s later.
    script = ScenarioScript(
        horizon=2400,
        events=[ScenarioEvent(at=320, kind="restart_manager", payload={"downtime": 45})],
        pod_startup_delay=20,
        policy={"force_interval": 1800, "min_dwell": 330},
    )
    result = run_scenario(script)
    assert not result.scenario_failed
    assert result.writes == [(0.0, 1), (365.0, 0), (1835.0, 1), (2165.0, 0)]
    assert_agrees_with_oracle(script, result)


def test_kube_throttling_holds_without_exiting(clock):
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(clock=clock).start()
    kube.apply_scale(1)  # a live runner that throttling must not scale down
    replica_writes = []
    kube.on_scale_write = lambda at, replicas: replica_writes.append(replicas)
    kube.set_fault(429)
    try:
        code, records = _run_polls(clock, github, kube, polls=4)
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    assert [(r.observed_replicas, r.wrote_scale) for r in records] == [(None, False)] * 4
    assert [r.consecutive_kube_errors for r in records] == [1, 2, 3, 4]
    assert (replica_writes, kube.scale_patch_violations, kube.spec_replicas) == ([], [], 1)


def test_scenario_leaves_no_threads_behind():
    before = threading.active_count()
    run_scenario(ScenarioScript(horizon=240, events=[], initial_last_active=0))
    deadline = time.time() + 5
    while threading.active_count() > before and time.time() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= before


def test_missing_deployment_exits_config_error(clock):
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(clock=clock).start()
    kube_client = KubeClient(
        KubeCredentials(api_base=kube.base_url, bearer_token="sa", ca_bundle=None, namespace="ci"),
        "not-the-runner",
        max_replicas=1,
    )
    github_client = GitHubClient(github.base_url, "t", clock=clock)
    try:
        config = Config(
            repo=RepoCoordinates("biocore", "unifrac"),
            policy=Policy(),
            kube_deployment="not-the-runner",
            github_api_base=github.base_url,
            github_token="t",
            kube_namespace="ci",
            kube_api_base=kube.base_url,
            kube_sa_dir="/nonexistent",
        )
        code = run_service(config, clock, threading.Event(), {}, github=github_client, kube=kube_client)
        assert code == EXIT_CONFIG
    finally:
        github_client.close()
        kube_client.close()
        github.close()
        kube.close()


def test_sigterm_style_stop_mid_run_issues_no_further_writes():
    # Wall-clock run with a tiny poll interval; stop fires while the loop
    # sleeps. Fake Kubernetes keeps its own stepping clock, so its pods start
    # at once; each accepted replica write is stamped with wall time.
    clock = SystemClock()
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(clock=SteppingClock()).start()
    write_times = []
    kube.on_scale_write = lambda at, replicas: write_times.append(time.time())
    github_client = GitHubClient(github.base_url, "t", clock=clock)
    kube_client = KubeClient(
        KubeCredentials(api_base=kube.base_url, bearer_token="sa", ca_bundle=None, namespace="ci"),
        "gha-runner",
        max_replicas=1,
    )
    stop = threading.Event()
    try:
        policy = Policy(poll_interval=0.05, min_dwell=0.05, force_interval=3600.0)
        config = Config(
            repo=RepoCoordinates("biocore", "unifrac"),
            policy=policy,
            kube_deployment="gha-runner",
            github_api_base=github.base_url,
            github_token="t",
            kube_namespace="ci",
            kube_api_base=kube.base_url,
            kube_sa_dir="/nonexistent",
        )
        records = []
        runner = threading.Thread(
            target=lambda: records.append(
                run_service(config, clock=clock, stop=stop, github=github_client,
                            kube=kube_client, environment={})
            )
        )
        runner.start()
        deadline = time.time() + 5
        while not write_times and time.time() < deadline:
            time.sleep(0.01)
        stop.set()
        stop_time = time.time()
        runner.join(timeout=5)
        assert not runner.is_alive()
        assert records == [0]
        # Allow the in-flight reconcile a moment to notice the stop flag.
        writes_after_stop = [at for at in write_times if at > stop_time + 0.25]
        assert writes_after_stop == []
    finally:
        github_client.close()
        kube_client.close()
        github.close()
        kube.close()


def test_decisions_logged_one_json_object_per_reconcile(caplog):
    import json
    import logging

    script = ScenarioScript(horizon=240, events=[], initial_last_active=0)
    with caplog.at_level(logging.INFO, logger="runner_manager.reconcile"):
        run_scenario(script)
    payloads = [json.loads(r.message) for r in caplog.records if r.name == "runner_manager.reconcile"]
    assert len(payloads) == 4
    for payload in payloads:
        assert set(payload) == {"time", "queued", "in_progress", "observed", "desired", "reason", "wrote_scale"}
        assert payload["reason"] == "idle"
        assert payload["wrote_scale"] is False


def test_log_line_is_not_rendered_below_info(caplog, monkeypatch):
    rendered = []
    as_log_dict = ReconcileRecord.as_log_dict
    monkeypatch.setattr(ReconcileRecord, "as_log_dict", lambda record: rendered.append(record) or as_log_dict(record))
    script = ScenarioScript(horizon=240, events=[], initial_last_active=0)
    with caplog.at_level(logging.WARNING, logger="runner_manager.reconcile"):
        result = run_scenario(script)
    assert len(result.decisions) == 4
    assert rendered == []


def _sa_mount(root) -> str:
    root.mkdir()
    (root / "token").write_text("sa-token\n")
    (root / "namespace").write_text("runners\n")
    (root / "ca.crt").write_text("not parsed until a TLS connection opens\n")
    return str(root)


def _kube_config(kube_api: str, sa_dir: str, namespace: str | None) -> Config:
    return Config(
        repo=RepoCoordinates("o", "r"),
        policy=Policy(),
        kube_deployment="gha-runner",
        kube_namespace=namespace,
        kube_api_base=kube_api,
        kube_sa_dir=sa_dir,
    )


def test_in_cluster_credentials_come_from_the_mount_and_service_env(tmp_path):
    mount = _sa_mount(tmp_path / "sa")
    env = {"GH_OWNER": "o", "GH_REPO": "r", "KUBE_DEPLOYMENT": "gha-runner", "GITHUB_TOKEN": "t",
           "KUBE_SA_DIR": mount}
    config = load_config([], env)
    assert (config.kube_api_base, config.kube_sa_dir) == (IN_CLUSTER, mount)
    creds = resolve_credentials(config, {"KUBERNETES_SERVICE_HOST": "10.96.0.1", "KUBERNETES_SERVICE_PORT": "6443"})
    assert creds == KubeCredentials(
        api_base="https://10.96.0.1:6443",
        bearer_token="sa-token",
        ca_bundle=str(tmp_path / "sa" / "ca.crt"),
        namespace="runners",
    )
    with pytest.raises(ConfigError, match="KUBERNETES_SERVICE_HOST"):
        resolve_credentials(config, {})


@pytest.mark.parametrize("scheme,keeps_ca", [("http", False), ("https", True)], ids=["http", "https"])
def test_explicit_kube_api_with_a_mount_uses_the_mounted_token(tmp_path, scheme, keeps_ca):
    mount = _sa_mount(tmp_path / "sa")
    creds = resolve_credentials(_kube_config(f"{scheme}://127.0.0.1:1", mount, "ci"), {"KUBE_TOKEN": "ignored"})
    assert creds == KubeCredentials(
        api_base=f"{scheme}://127.0.0.1:1",
        bearer_token="sa-token",
        # Only a plain-HTTP address drops the mounted CA.
        ca_bundle=str(tmp_path / "sa" / "ca.crt") if keeps_ca else None,
        namespace="ci",
    )


@pytest.mark.parametrize(
    "kube_api", ["https://kube.example:6443", "https://kube.example:6443/"], ids=["as-given", "trailing-slash"]
)
def test_explicit_kube_api_without_a_mount_uses_kube_token(tmp_path, kube_api):
    config = _kube_config(kube_api, str(tmp_path / "no-mount"), "ci")
    assert resolve_credentials(config, {"KUBE_TOKEN": "env-token"}) == KubeCredentials(
        api_base="https://kube.example:6443", bearer_token="env-token", ca_bundle=None, namespace="ci"
    )


def test_a_taken_status_port_exits_config_error_and_closes_the_clients(clock, monkeypatch, caplog):
    closed = []
    for cls in (GitHubClient, KubeClient):
        monkeypatch.setattr(cls, "close", lambda self, close=cls.close: (closed.append(type(self)), close(self)))
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        status_addr = "127.0.0.1:%d" % taken.getsockname()[1]
        config = Config(
            repo=RepoCoordinates("o", "r"),
            policy=Policy(),
            kube_deployment="gha-runner",
            github_api_base="http://127.0.0.1:1",
            github_token="t",
            kube_namespace="ci",
            kube_api_base="http://127.0.0.1:1",
            kube_sa_dir="/nonexistent",
            status_addr=status_addr,
        )
        with caplog.at_level(logging.ERROR, logger="runner_manager.service"):
            code = run_service(config, clock, threading.Event(), {"KUBE_TOKEN": "t"})
    assert code == EXIT_CONFIG
    assert f"cannot serve status on {status_addr}" in caplog.text
    assert sorted(cls.__name__ for cls in closed) == ["GitHubClient", "KubeClient"]
    assert clock.waits == []  # no poll ran


def test_saturated_poll_logs_at_least_max_runners_outstanding(caplog):
    import json
    import logging

    # Five single-job runs against max_runners 2: the listing stops after two
    # matching jobs, so the logged counts are a lower bound, not the total.
    events = [ScenarioEvent(at=10, kind="enqueue_job", payload={"labels": LABELS, "duration": 600}) for _ in range(5)]
    script = ScenarioScript(horizon=300, events=events, initial_last_active=0, policy={"max_runners": 2})
    with caplog.at_level(logging.INFO, logger="runner_manager.reconcile"):
        result = run_scenario(script)
    payloads = [json.loads(r.message) for r in caplog.records if r.name == "runner_manager.reconcile"]
    saturated = [p for p in payloads if p["reason"] == "demand"]
    assert saturated
    for payload in saturated:
        assert payload["queued"] + payload["in_progress"] >= 2
        assert payload["desired"] == 2
    assert any(p["queued"] + p["in_progress"] < 5 for p in saturated)
    assert_agrees_with_oracle(script, result)
