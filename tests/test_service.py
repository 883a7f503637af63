"""run_service end to end: the real loop against the fake world."""

import logging
import math
import socket
import threading
import time
from contextlib import closing
from typing import Callable

import pytest
from conftest import SteppingClock, assert_agrees_with_oracle

from runner_manager.config import IN_CLUSTER, Config, Policy, RepoCoordinates, load_config
from runner_manager.clock import SystemClock, from_rfc3339, to_rfc3339
from runner_manager.harness.driver import run_scenario
from runner_manager.harness.fake_github import FakeGitHub
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
    # Three matching jobs and room for two runners. The 60 s poll stops
    # reading at two queued jobs; by the 120 s poll both runners hold one.
    # The counts differ, so a swap of the two would show.
    script = ScenarioScript(
        horizon=121,
        events=[ScenarioEvent(at=10, kind="enqueue_job", payload={"labels": LABELS}) for _ in range(3)],
        initial_last_active=0,
        policy={"max_runners": 2},
    )
    result = run_scenario(script)
    assert not result.scenario_failed
    assert result.poll_counts == [(0.0, 0, 0), (60.0, 2, 0), (120.0, 0, 2)]
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


def _serve(clock, github_client, kube: FakeKube, stop: threading.Event, observer) -> int:
    """run_service with ``github_client`` against fake Kubernetes until ``stop``."""
    config = Config(
        repo=RepoCoordinates("biocore", "unifrac"),
        policy=Policy(),
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
        max_replicas=1,
    )
    try:
        return run_service(
            config, clock=clock, stop=stop, observer=observer, github=github_client, kube=kube_client, environment={}
        )
    finally:
        kube_client.close()


def _run_polls(clock, github: FakeGitHub, kube: FakeKube, polls: int, on_record=None) -> tuple[int, list]:
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
        return _serve(clock, github_client, kube, stop, observe), records


class _ScriptedGitHub:
    """A GitHub client stub: each listing runs ``on_list`` and finds no job."""

    rate_limit_remaining = None

    def __init__(self, on_list: Callable[[], None]):
        self.on_list = on_list

    def list_outstanding_jobs(self, repo, labels, cap):
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
    assert github.api_request_count == 2 * 30


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


def test_keepalive_dwell_reads_the_deployment_once_a_poll(clock, monkeypatch):
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
    for record, sent, stamp in zip(records, per_poll, stamps):
        # A GET on each poll through the scale-down; the idle polls after it
        # already know the Deployment holds 0 replicas.
        reads = [("GET", DEPLOYMENT_PATH)] if record.tick <= down.tick else []
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


def test_busy_hour_refreshes_last_active_once_per_min_dwell(clock, monkeypatch):
    # A ready runner and a job nobody claims: 60 polls of demand for 1.
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
    policy = Policy()
    assert len(sent) <= math.ceil(60 * policy.poll_interval / policy.min_dwell) + 1
    # Written when unset at the first poll, then each time it lags by min_dwell.
    assert sent == [to_rfc3339(records[0].decided_at + k * policy.min_dwell) for k in range(4)]


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
    # then exits while no manager runs. The next incarnation reads a stamp
    # that may trail: its keepalive falls due early, by less than
    # min_dwell + poll_interval, and never late.
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

            kube.ready_replicas = 0
            clock.advance(policy.poll_interval)  # downtime
            restarted = ReconcileLoop(gh_client, kube, policy, clock, REPO, threading.Event())
            due = restarted.reconcile_once(clock.now()).keepalive_next_due
            assert 0 <= exact - due < policy.min_dwell + policy.poll_interval, streak
    finally:
        gh_client.close()
        github.close()


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
