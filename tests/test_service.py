"""run_service end to end: the real loop against the fake world."""

import threading
import time

from runner_manager.config import Config, Policy, RepoCoordinates
from runner_manager.clock import SystemClock
from runner_manager.harness.driver import run_scenario
from runner_manager.harness.fake_github import FakeGitHub
from runner_manager.harness.fake_kube import FakeKube
from runner_manager.harness.oracle import oracle_decisions
from runner_manager.harness.scenario import ScenarioEvent, ScenarioScript
from runner_manager.errors import CredentialError
from runner_manager.kube import KubeClient, KubeCredentials
from runner_manager.github import GitHubClient
from runner_manager.reconciler import Reason
from runner_manager.service import EXIT_CONFIG, EXIT_CREDENTIALS, EXIT_OK, run_service

LABELS = ["self-hosted", "linux-gpu-cuda"]


def test_single_queued_job_scales_once_within_one_poll():
    script = ScenarioScript(
        horizon=900,
        events=[ScenarioEvent(at=10, kind="enqueue_job", payload={"labels": LABELS, "duration": 300})],
        pod_startup_delay=20,
        initial_last_active=0,
    )
    result = run_scenario(script)
    assert not result.scenario_failed
    expected = oracle_decisions(script, result.policy)
    assert result.decisions == expected.decisions
    assert result.writes == expected.writes
    up_writes = [w for w in result.writes if w[1] == 1]
    assert len(up_writes) == 1
    assert 10 < up_writes[0][0] <= 10 + result.policy.poll_interval


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
    assert result.decisions == oracle_decisions(script, result.policy).decisions
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
    assert result.decisions == oracle_decisions(script, result.policy).decisions
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
    """May read the Deployment but is refused every /scale patch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.write_attempts = 0

    def write_scale(self, replicas):
        self.write_attempts += 1
        raise CredentialError("PATCH /scale -> 403", 403)


def test_refused_scale_writes_reach_the_credential_exit(clock):
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(namespace="ci", deployment="gha-runner", clock=clock).start()
    kube_client = _UnwritableKubeClient(
        KubeCredentials(api_base=kube.base_url, bearer_token="sa", ca_bundle=None, namespace="ci"),
        "gha-runner",
        max_replicas=1,
    )
    github_client = GitHubClient(github.base_url, "t", clock=clock)
    try:
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
        # No last-active annotation: keepalive is due, so every poll tries to scale to 1.
        code = run_service(
            config, clock=clock, observer=records.append, github=github_client, kube=kube_client, environment={}
        )
        assert code == EXIT_CREDENTIALS
        assert kube_client.write_attempts == 3
        assert [r.consecutive_kube_errors for r in records] == [1, 2]
    finally:
        github_client.close()
        kube_client.close()
        github.close()
        kube.close()


def _run_polls(clock, github: FakeGitHub, kube: FakeKube, polls: int) -> tuple[int, list]:
    """run_service against the fakes until ``polls`` records were published."""
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
    github_client = GitHubClient(github.base_url, "t", clock=clock)
    kube_client = KubeClient(
        KubeCredentials(api_base=kube.base_url, bearer_token="sa", ca_bundle=None, namespace="ci"),
        "gha-runner",
        max_replicas=1,
    )
    stop = threading.Event()
    records = []

    def observe(record):
        records.append(record)
        if len(records) == polls:
            stop.set()

    try:
        code = run_service(
            config, clock=clock, stop=stop, observer=observe, github=github_client, kube=kube_client, environment={}
        )
    finally:
        github_client.close()
        kube_client.close()
    return code, records


def test_idle_polls_draw_on_the_rate_limit_only_for_the_first_answers(clock):
    github = FakeGitHub(expected_token="t", clock=clock, keep_request_log=True).start()
    kube = FakeKube(namespace="ci", deployment="gha-runner", clock=clock).start()
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
    assert [r.status for r in github.request_log].count(304) == 2 * 29
    assert github.api_request_count == 2 * 30


def test_secondary_rate_limit_holds_without_exiting(clock):
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(namespace="ci", deployment="gha-runner", clock=clock).start()
    kube.apply_scale(1)  # a live runner that the outage must not scale down
    github.set_fault("secondary_rate_limit", 30)
    try:
        code, records = _run_polls(clock, github, kube, polls=4)
    finally:
        github.close()
        kube.close()
    assert code == EXIT_OK
    assert [(r.desired, r.reason, r.wrote_scale) for r in records] == [(1, Reason.HOLD, False)] * 4
    assert [r.consecutive_github_errors for r in records] == [1, 2, 3, 4]
    assert kube.scale_write_log == []


def test_scenario_leaves_no_threads_behind():
    before = threading.active_count()
    run_scenario(ScenarioScript(horizon=240, events=[], initial_last_active=0))
    deadline = time.time() + 5
    while threading.active_count() > before and time.time() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= before


def test_missing_deployment_exits_config_error(clock):
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(namespace="ci", deployment="gha-runner", clock=clock).start()
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
        kube_client = KubeClient(
            KubeCredentials(api_base=kube.base_url, bearer_token="sa", ca_bundle=None, namespace="ci"),
            "not-the-runner",
            max_replicas=1,
        )
        github_client = GitHubClient(github.base_url, "t", clock=clock)
        code = run_service(config, clock=clock, github=github_client, kube=kube_client, environment={})
        assert code == EXIT_CONFIG
    finally:
        github.close()
        kube.close()


def test_sigterm_style_stop_mid_run_issues_no_further_writes():
    # Wall-clock run with a tiny poll interval; stop fires while the loop sleeps.
    clock = SystemClock()
    github = FakeGitHub(expected_token="t", clock=clock).start()
    kube = FakeKube(namespace="ci", deployment="gha-runner", clock=clock).start()
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
        github_client = GitHubClient(github.base_url, "t", clock=clock)
        kube_client = KubeClient(
            KubeCredentials(api_base=kube.base_url, bearer_token="sa", ca_bundle=None, namespace="ci"),
            "gha-runner",
            max_replicas=1,
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
        while not kube.scale_write_log and time.time() < deadline:
            time.sleep(0.01)
        stop.set()
        stop_time = time.time()
        runner.join(timeout=5)
        assert not runner.is_alive()
        assert records == [0]
        # Allow the in-flight reconcile a moment to notice the stop flag.
        writes_after_stop = [w for w in kube.scale_write_log if w.at > stop_time + 0.25]
        assert writes_after_stop == []
    finally:
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
