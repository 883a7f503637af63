"""Classification corners and less-traveled policy shapes."""

import threading
from contextlib import closing
from pathlib import Path

import pytest

from runner_manager.clock import to_rfc3339
from runner_manager.config import Policy, RepoCoordinates
from runner_manager.errors import ProtocolError, RateLimitedError, TransientError
from runner_manager.github import BackoffState, GitHubClient, execute_with_backoff
from runner_manager.harness.driver import run_scenario
from runner_manager.harness.fake_github import FakeGitHub
from runner_manager.harness.httpserver import Response
from runner_manager.harness.scenario import ScenarioEvent, ScenarioScript, load_script
from runner_manager.harness.virtual_clock import SIM_EPOCH
from runner_manager.kube import DeploymentSnapshot, KubeClient, KubeCredentials
from runner_manager.labels import LabelSet
from runner_manager.reconciler import ANNOTATION_KEEPALIVE_STARTED, ANNOTATION_LAST_ACTIVE, Reason, ReconcileLoop
from runner_manager.status import HttpServer

from conftest import SteppingClock, assert_agrees_with_oracle

REPO = RepoCoordinates("biocore", "unifrac")
MATCHING = ["self-hosted", "linux-gpu-cuda"]


def test_403_with_exhausted_quota_is_rate_limit_not_credential(clock):
    clock.t = 1000.0
    server = HttpServer(
        lambda request: Response.json(
            403,
            {"message": "API rate limit exceeded"},
            {"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": "1600"},
        )
    )
    server.start()
    try:
        with closing(GitHubClient(server.base_url, "t", clock=clock)) as client:
            with pytest.raises(RateLimitedError) as excinfo:
                client.list_runs(REPO, "queued")
        assert excinfo.value.retry_after == pytest.approx(600.0)
    finally:
        server.close()


def test_rate_limit_without_retry_after_waits_one_minute():
    clock = SteppingClock()
    calls = []

    def call():
        calls.append(clock.now())
        raise RateLimitedError("limited", 429, retry_after=None)

    state = BackoffState()
    with pytest.raises(RateLimitedError):
        execute_with_backoff(call, state, clock, window_end=10.0, interrupt=threading.Event())
    assert calls == [0.0]
    assert state.next_allowed_attempt == 60.0  # GitHub's documented minimum wait


def test_outage_scenario_sends_one_github_request_a_poll(monkeypatch):
    # Fake GitHub's request log, each record timed as it is appended.
    sent = []
    record_request = FakeGitHub.record_request

    def timed(github, method, path, headers, status):
        record_request(github, method, path, headers, status)
        sent.append((github.clock.now() - SIM_EPOCH, github.request_log[-1]))

    monkeypatch.setattr(FakeGitHub, "record_request", timed)
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    script = load_script(str(scenarios / "github-outage-one-attempt-a-poll.yaml"))
    result = run_scenario(script, keep_request_log=True)
    assert not result.scenario_failed
    repos = [(at, record.status) for at, record in sent if record.path.startswith("/repos/")]

    def sent_in(start, end):
        return [(at, status) for at, status in repos if start <= at < end]

    # The 503 lasts the polls at 180, 240 and 300 s: one request each.
    for tick in (180.0, 240.0, 300.0):
        assert sent_in(tick, tick + 60) == [(tick, 503)]
    # The 429 at 420 s says 90 s: the poll at 480 s waits, then asks at 510 s.
    assert sent_in(420.0, 480.0) == [(420.0, 429)]
    assert sent_in(480.0, 510.0) == []
    at, status = sent_in(510.0, 540.0)[0]
    assert at == 510.0 and status in (200, 304)


def test_kube_409_conflict_is_transient():
    server = HttpServer(lambda request: Response.json(409, {"message": "conflict"}))
    server.start()
    try:
        creds = KubeCredentials(api_base=server.base_url, bearer_token="t", ca_bundle=None, namespace="ci")
        with closing(KubeClient(creds, "gha-runner", max_replicas=1)) as client, pytest.raises(TransientError):
            client.write_scale(1, {})
    finally:
        server.close()


def test_kube_400_is_protocol_error_for_the_read_and_the_patch():
    # A 400 answer carries a Status object, not a Deployment: neither a read
    # of zero replicas nor a landed write may be made of it.
    server = HttpServer(lambda request: Response.json(400, {"kind": "Status", "code": 400}))
    server.start()
    try:
        creds = KubeCredentials(api_base=server.base_url, bearer_token="t", ca_bundle=None, namespace="ci")
        with closing(KubeClient(creds, "gha-runner", max_replicas=1)) as client:
            for call in (client.read_scale, lambda: client.write_scale(1, {})):
                with pytest.raises(ProtocolError) as excinfo:
                    call()
                assert excinfo.value.status == 400
    finally:
        server.close()


def test_scripted_cancellation_releases_the_runner():
    # A workflow cancelled from the GitHub side must free the runner and
    # let the manager scale down at the next poll.
    script = ScenarioScript(
        horizon=900,
        events=[
            ScenarioEvent(at=10, kind="enqueue_job",
                          payload={"labels": MATCHING, "duration": 5000, "ref": "big"}),
            ScenarioEvent(at=310, kind="complete_job", payload={"ref": "big"}),
        ],
        pod_startup_delay=20,
        initial_last_active=0,
    )
    result = run_scenario(script)
    assert not result.scenario_failed
    assert_agrees_with_oracle(script, result)
    assert result.writes == [(60.0, 1), (360.0, 0)]


def test_cancelled_job_frees_the_runner_for_the_next_queued_job():
    # One runner, two jobs: cancelling the first hands the runner the second
    # at the same instant, without waiting for the first job's timer.
    script = ScenarioScript(
        horizon=900,
        events=[
            ScenarioEvent(at=10, kind="enqueue_job",
                          payload={"labels": MATCHING, "duration": 5000, "ref": "big"}),
            ScenarioEvent(at=20, kind="enqueue_job",
                          payload={"labels": MATCHING, "duration": 100, "ref": "small"}),
            ScenarioEvent(at=310, kind="complete_job", payload={"ref": "big"}),
        ],
        pod_startup_delay=20,
        initial_last_active=0,
        policy={"max_runners": 1},
    )
    result = run_scenario(script)
    assert not result.scenario_failed
    assert_agrees_with_oracle(script, result)
    claims = [(e.at, e.detail["job"]) for e in result.trace.select(actor="fake_runner", action="job_claimed")]
    assert claims == [(80.0, 1), (310.0, 2)]
    completed = [(e.at, e.detail["job"]) for e in result.trace.select(actor="fake_runner", action="job_completed")]
    assert completed == [(410.0, 2)]


def test_a_cancelled_jobs_timer_does_not_end_the_runners_next_job():
    # Job 1 is cancelled at t=100 and the runner takes job 2 at once; job
    # 1's completion timer still fires at t=380 and must neither end job 2
    # nor free the runner for job 3.
    script = ScenarioScript(
        horizon=1500,
        events=[
            ScenarioEvent(at=10, kind="enqueue_job",
                          payload={"labels": MATCHING, "duration": 300, "ref": "first"}),
            ScenarioEvent(at=20, kind="enqueue_job", payload={"labels": MATCHING, "duration": 1000}),
            ScenarioEvent(at=30, kind="enqueue_job", payload={"labels": MATCHING, "duration": 100}),
            ScenarioEvent(at=100, kind="complete_job", payload={"ref": "first"}),
        ],
        pod_startup_delay=20,
        initial_last_active=0,
        policy={"max_runners": 1},
    )
    result = run_scenario(script)
    assert not result.scenario_failed
    assert result.writes == [(60.0, 1), (1200.0, 0)]
    completed = [(e.at, e.detail["job"]) for e in result.trace.select(actor="fake_runner", action="job_completed")]
    assert completed == [(1100.0, 2), (1200.0, 3)]
    assert_agrees_with_oracle(script, result)


def test_a_busy_runner_is_kept_until_its_job_ends():
    # scenarios/busy-scale-down.yaml: from t=180 one job is outstanding and
    # in progress on gha-runner-2 while gha-runner-1 idles. A cut to 1 could
    # remove the busy pod, so the manager holds 2 (busy) until the job ends
    # at t=1080, and then scales to 0. Nothing is requeued. At t=120 both
    # jobs run and the count held already covers demand: busy too.
    script = load_script(str(Path(__file__).resolve().parent.parent / "scenarios" / "busy-scale-down.yaml"))
    result = run_scenario(script)
    assert not result.scenario_failed
    assert result.writes == [(60.0, 2), (1080.0, 0)]
    busy = [(tick, target) for tick, target, reason in result.decisions if reason == "busy"]
    assert busy == [(60.0 * k, 2) for k in range(2, 18)]
    assert [counts for tick, *counts in result.poll_counts if tick == 180.0] == [[0, 1]]
    completed = [(e.at, e.detail["pod"], e.detail["job"]) for e in result.trace.select("fake_runner", "job_completed")]
    assert completed == [(180.0, "gha-runner-1", 1), (1080.0, "gha-runner-2", 2)]
    assert result.trace.select("fake_github", "job_requeued") == []
    assert_agrees_with_oracle(script, result)


def test_two_runners_serve_three_jobs_with_cap_two():
    script = ScenarioScript(
        horizon=1200,
        events=[
            ScenarioEvent(at=10, kind="enqueue_job", payload={"labels": MATCHING, "duration": 200}),
            ScenarioEvent(at=12, kind="enqueue_job", payload={"labels": MATCHING, "duration": 200}),
            ScenarioEvent(at=14, kind="enqueue_job", payload={"labels": MATCHING, "duration": 200}),
        ],
        pod_startup_delay=20,
        initial_last_active=0,
        policy={"max_runners": 2},
    )
    result = run_scenario(script)
    assert not result.scenario_failed
    assert_agrees_with_oracle(script, result)
    assert max(v for _, v in result.writes) == 2
    assert all(v <= 2 for _, v in result.writes)
    # Two pods work in parallel: three 200s jobs finish well before three
    # sequential runs would.
    completed = result.trace.select(actor="fake_github", action="job_completed")
    assert len(completed) == 3
    assert max(e.at for e in completed) < 10 + 20 + 2 * 200 + 120


def test_outstanding_statuses_knob_limits_what_pins_the_runner(clock, fake_github, gh_client):
    # OUTSTANDING_STATUSES holds in_progress, so a claimed job still counts
    # as demand and pins the runner that runs it.
    fake_github.enqueue_job(MATCHING)
    runner = fake_github.register_runner("r", MATCHING)
    fake_github.claim_job(runner)
    jobs = gh_client.list_outstanding_jobs(REPO, LabelSet(MATCHING), 1, in_progress=True, until_busy=False)
    assert len(jobs) == 1 and jobs[0].status == "in_progress"


def test_unparseable_last_active_annotation_counts_as_unknown(caplog, clock, fake_kube, gh_client, kube_client):
    fake_kube.annotations[ANNOTATION_LAST_ACTIVE] = "last tuesday"
    loop = ReconcileLoop(gh_client, kube_client, Policy(), clock, REPO, threading.Event())
    with caplog.at_level("WARNING", logger="runner_manager.reconciler"):
        record = loop.reconcile_once(0.0)
    assert "ignoring unparseable annotation timestamp 'last tuesday'" in caplog.text
    assert loop.state.last_active is None
    assert (record.desired, record.reason, record.wrote_scale) == (1, Reason.KEEPALIVE, True)
    assert record.keepalive_next_due is None


class _TerminatingPodKube:
    """A Deployment already scaled to 0 whose status still reports one
    ready replica: the controller has not yet caught up with the spec."""

    def __init__(self, last_active: float):
        self.annotations = {ANNOTATION_LAST_ACTIVE: to_rfc3339(last_active)}
        self.reads = 0

    def read_scale(self):
        self.reads += 1
        return DeploymentSnapshot(spec_replicas=0, ready_replicas=1, annotations=dict(self.annotations))

    def write_scale(self, replicas, annotations):
        raise AssertionError("spec already matches the idle target")

    def write_annotation(self, annotations):
        self.annotations.update(annotations)


def test_running_pod_of_a_scaled_down_deployment_still_counts_as_activity(clock, gh_client):
    # Reading spec.replicas would see 0 here and leave last-active behind;
    # the loop reads readyReplicas.
    kube = _TerminatingPodKube(last_active=0.0)
    loop = ReconcileLoop(gh_client, kube, Policy(), clock, REPO, threading.Event())
    clock.advance(100)
    record = loop.reconcile_once(clock.now())
    assert (record.desired, record.reason, record.wrote_scale) == (0, Reason.IDLE, False)
    assert kube.reads == 1
    assert loop.state.last_active == 100
    assert kube.annotations[ANNOTATION_LAST_ACTIVE] == to_rfc3339(100)


def test_replica_that_is_not_ready_is_no_activity(clock, gh_client):
    # A Pending or crash-looping runner: the Deployment counts the pod in
    # status.replicas, and the API server leaves readyReplicas out at 0.
    # Mid-dwell, so the keepalive target 1 equals spec and nothing is due.
    annotations = {
        ANNOTATION_LAST_ACTIVE: to_rfc3339(0.0),
        ANNOTATION_KEEPALIVE_STARTED: to_rfc3339(50.0),
    }
    body = {
        "kind": "Deployment",
        "metadata": {"name": "gha-runner", "annotations": annotations},
        "spec": {"replicas": 1},
        "status": {"replicas": 1},
    }
    sent = []

    def handle(request):
        sent.append(request.method)
        return Response.json(200, body)

    server = HttpServer(handle)
    server.start()
    try:
        creds = KubeCredentials(api_base=server.base_url, bearer_token="t", ca_bundle=None, namespace="ci")
        with closing(KubeClient(creds, "gha-runner", max_replicas=1)) as kube_client:
            loop = ReconcileLoop(gh_client, kube_client, Policy(), clock, REPO, threading.Event())
            clock.advance(100)
            record = loop.reconcile_once(clock.now())
    finally:
        server.close()
    assert (record.desired, record.reason, record.wrote_scale) == (1, Reason.KEEPALIVE, False)
    assert loop.state.last_active == 0.0
    assert sent == ["GET"]  # no annotation patch: last-active did not move
