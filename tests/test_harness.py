"""The testbed itself: virtual clock, fake servers, scenario driver."""

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from contextlib import closing
from pathlib import Path
from urllib.parse import urlsplit

import pytest

import runner_manager.harness.cli as harness_cli
from runner_manager.clock import SystemClock
from runner_manager.config import RepoCoordinates
from runner_manager.errors import CredentialError, TransientError
from runner_manager.github import GitHubClient
from runner_manager.harness.driver import run_scenario
from runner_manager.harness.fake_github import OWNER, REPO, REQUIRED_HEADERS, FakeGitHub
from runner_manager.harness.fake_kube import MERGE_PATCH, FakeKube
from runner_manager.harness.fake_runner import RunnerWorld
from runner_manager.harness.httpserver import Response
from runner_manager.harness.scenario import (
    ScenarioEvent,
    ScenarioScript,
    generate_random_script,
    load_script,
    script_to_dict,
)
from runner_manager.harness.virtual_clock import SIM_EPOCH, VirtualClock
from runner_manager.kube import KubeClient
from runner_manager.reconciler import ReconcileLoop
from runner_manager.status import HttpServer
from runner_manager.transport import HttpTransport


class TestVirtualClock:
    def test_time_advances_only_by_driver(self):
        clock = VirtualClock()
        assert clock.now() == SIM_EPOCH
        clock.advance_to(SIM_EPOCH + 10)
        assert clock.now() == SIM_EPOCH + 10
        with pytest.raises(ValueError):
            clock.advance_to(SIM_EPOCH)

    def test_a_wait_runs_the_timers_due_by_its_deadline_in_order(self):
        clock = VirtualClock()
        ran = []
        for at, name in [(20, "c"), (5, "a"), (30, "late"), (20, "d"), (10, "b")]:
            clock.call_at(SIM_EPOCH + at, lambda name=name: ran.append((name, clock.now() - SIM_EPOCH)))
        clock.wait_until(SIM_EPOCH + 20, threading.Event())
        # By time, then in the order they were set; the one after the deadline waits.
        assert ran == [("a", 5), ("b", 10), ("c", 20), ("d", 20)]
        assert clock.now() == SIM_EPOCH + 20
        clock.wait_until(SIM_EPOCH + 25, threading.Event())
        assert clock.now() == SIM_EPOCH + 25 and len(ran) == 4
        clock.wait_until(SIM_EPOCH + 40, threading.Event())
        assert ran[-1] == ("late", 30) and clock.now() == SIM_EPOCH + 40

    def test_a_timer_set_for_now_by_a_timer_runs_before_the_wait_returns(self):
        clock = VirtualClock()
        ran = []

        def set_another():
            ran.append("first")
            clock.call_at(clock.now(), lambda: ran.append("second"))

        clock.call_at(SIM_EPOCH + 5, set_another)
        clock.wait_until(SIM_EPOCH + 5, threading.Event())
        assert ran == ["first", "second"]

    def test_a_timer_that_sets_the_interrupt_ends_the_wait_at_its_instant(self):
        clock = VirtualClock()
        stop = threading.Event()
        ran = []
        clock.call_at(SIM_EPOCH + 7, stop.set)
        clock.call_at(SIM_EPOCH + 7, lambda: ran.append(7))
        clock.call_at(SIM_EPOCH + 9, lambda: ran.append(9))
        clock.wait_until(SIM_EPOCH + 60, stop)
        assert (clock.now(), ran) == (SIM_EPOCH + 7, [])
        clock.wait_until(SIM_EPOCH + 60, stop)  # an interrupted wait does nothing
        assert (clock.now(), ran) == (SIM_EPOCH + 7, [])
        clock.wait_until(SIM_EPOCH + 60, threading.Event())  # the later timers stayed queued
        assert (clock.now(), ran) == (SIM_EPOCH + 60, [7, 9])

    def test_time_never_moves_backward(self):
        clock = VirtualClock()
        clock.wait_until(SIM_EPOCH + 10, threading.Event())
        ran = []
        clock.call_at(SIM_EPOCH + 3, lambda: ran.append(clock.now()))
        clock.wait_until(SIM_EPOCH + 4, threading.Event())  # a deadline in the past
        assert ran == [SIM_EPOCH + 10]  # a timer set in the past runs now
        assert clock.now() == SIM_EPOCH + 10

    def test_a_wait_that_would_reach_the_horizon_sets_its_interrupt(self):
        clock = VirtualClock()
        clock.horizon = SIM_EPOCH + 100
        stop = threading.Event()
        ran = []
        clock.call_at(SIM_EPOCH + 99, lambda: ran.append(99))
        clock.call_at(SIM_EPOCH + 100, lambda: ran.append(100))
        clock.wait_until(SIM_EPOCH + 500, stop)
        assert stop.is_set()
        assert (clock.now(), ran) == (SIM_EPOCH + 99, [99])


class TestFakeGitHub:
    def test_enqueued_job_appears_in_queued_runs(self, fake_github, gh_client):
        fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
        runs = gh_client.list_runs(RepoCoordinates("biocore", "unifrac"), "queued")
        assert len(runs) == 1

    def test_claim_transitions_job_to_in_progress(self, fake_github):
        job = fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])[0]
        runner = fake_github.register_runner("r1", ["self-hosted", "linux-gpu-cuda", "x64"])
        claimed = fake_github.claim_job(runner)
        assert claimed.job_id == job.job_id
        assert fake_github.jobs[job.job_id].status == "in_progress"

    def test_non_matching_labels_never_claimed(self, fake_github):
        fake_github.enqueue_job(["self-hosted", "windows"])
        runner = fake_github.register_runner("r1", ["self-hosted", "linux-gpu-cuda"])
        assert fake_github.claim_job(runner) is None

    def test_deregistration_requeues_in_flight_job(self, fake_github):
        job = fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])[0]
        runner = fake_github.register_runner("r1", ["self-hosted", "linux-gpu-cuda"])
        fake_github.claim_job(runner)
        fake_github.deregister_runner(runner)
        assert fake_github.jobs[job.job_id].status == "queued"

    def test_a_live_runner_name_cannot_register_again(self, fake_github):
        assert fake_github.register_runner("r1", ["self-hosted"]) == "r1"
        assert fake_github.register_runner("r1", ["self-hosted", "x64"]) is None
        assert fake_github.runners["r1"].as_list() == ["self-hosted"]  # the first registration stands
        token, _ = fake_github.mint_registration_token()
        assert _register_over_http(fake_github, token) == 409
        assert fake_github.deregister_runner("r1")
        assert _register_over_http(fake_github, token) == 201

    def test_deregistering_an_unknown_name_requeues_nothing(self, fake_github):
        job = fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])[0]
        fake_github.register_runner("r1", ["self-hosted", "linux-gpu-cuda"])
        fake_github.claim_job("r1")
        assert fake_github.deregister_runner("r2") is False
        assert fake_github.jobs[job.job_id].status == "in_progress"
        assert fake_github.claims == {"r1": job}

    def test_force_completed_job_frees_its_runner(self, fake_github):
        first = fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"], ref="first")[0]
        second = fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])[0]
        fake_github.register_runner("r1", ["self-hosted", "linux-gpu-cuda"])
        assert fake_github.claim_job("r1") is first
        assert fake_github.claim_job("r1") is None  # busy
        fake_github.force_complete("first")
        assert fake_github.claim_job("r1") is second
        assert fake_github.complete_job("r1", first.job_id) is False  # the stale timer of the cancelled job

    def test_fault_span_answers_injected_status(self, fake_github, gh_client):
        fake_github.set_fault("status", 500)
        with pytest.raises(TransientError):
            gh_client.list_runs(RepoCoordinates("biocore", "unifrac"), "queued")
        fake_github.clear_fault()
        assert gh_client.list_runs(RepoCoordinates("biocore", "unifrac"), "queued") == []

    def test_registration_accepts_only_minted_tokens(self, fake_github):
        assert _register_over_http(fake_github, "REG-0001") == 403  # nothing minted yet
        token, _ = fake_github.mint_registration_token()
        assert token == "REG-0001"
        assert _register_over_http(fake_github, "REG-forged") == 403
        assert _register_over_http(fake_github, token) == 201
        assert len(fake_github.runners) == 1

    @pytest.mark.parametrize("status, reason", [(502, "Bad Gateway"), (599, "Unknown Status")])
    def test_fault_status_line_carries_its_reason_phrase(self, fake_github, status, reason):
        fake_github.set_fault("status", status)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{fake_github.base_url}/repos/biocore/unifrac/actions/runs")
        excinfo.value.close()
        assert (excinfo.value.code, excinfo.value.reason) == (status, reason)


class _ManagerEnds(BaseException):
    """Not an Exception: what perfbench's set-up probe raises to end a manager."""


def _register_over_http(fake_github, token: str) -> int:
    """POST to the fake runner's registration route; the HTTP status."""
    request = urllib.request.Request(
        f"{fake_github.base_url}/_harness/runners",
        data=json.dumps({"name": "r1", "labels": ["self-hosted"], "token": token}).encode(),
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status
    except urllib.error.HTTPError as exc:
        exc.close()
        return exc.code


class TestFakeKube:
    def test_scale_up_creates_running_pod_synchronously(self, fake_kube):
        fake_kube.apply_scale(1)
        assert fake_kube.running_count() == 1

    def test_scale_to_same_value_is_no_churn(self, fake_kube):
        fake_kube.apply_scale(1)
        pod = fake_kube.pods[0]
        fake_kube.apply_scale(1)
        assert fake_kube.pods[0] is pod

    def test_cross_namespace_request_flags_scenario(self, fake_kube):
        url = f"{fake_kube.base_url}/apis/apps/v1/namespaces/other/deployments/gha-runner/scale"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url)
        excinfo.value.close()
        assert excinfo.value.code == 403
        assert fake_kube.cross_namespace_requests == ["/apis/apps/v1/namespaces/other/deployments/gha-runner/scale"]

    def test_scale_subresource_is_never_read(self, fake_kube):
        # The Role grants nothing on deployments/scale: no method on /scale
        # may fall through to another route, a valid replica patch included,
        # and each request is recorded as one outside the Role.
        path = "/apis/apps/v1/namespaces/ci/deployments/gha-runner/scale"
        url = f"{fake_kube.base_url}{path}"
        for request in (
            urllib.request.Request(url),
            urllib.request.Request(
                url, data=b'{"spec": {"replicas": 1}}', method="PATCH", headers={"Content-Type": MERGE_PATCH}
            ),
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            excinfo.value.close()
            assert excinfo.value.code == 403
        assert (fake_kube.spec_replicas, fake_kube.scale_patch_violations) == (0, [])
        assert fake_kube.cross_namespace_requests == [path, path]

    @pytest.mark.parametrize(
        "body, content_type",
        [
            ({"spec": {"replicas": 1, "paused": True}}, MERGE_PATCH),
            ({"spec": {"replicas": 1}}, "application/strategic-merge-patch+json"),
        ],
        ids=["extra-spec-field", "non-merge-content-type"],
    )
    def test_bad_replica_patch_is_refused_and_flagged(self, fake_kube, body, content_type):
        url = f"{fake_kube.base_url}/apis/apps/v1/namespaces/ci/deployments/gha-runner"
        patch = urllib.request.Request(
            url, data=json.dumps(body).encode(), method="PATCH", headers={"Content-Type": content_type}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(patch)
        excinfo.value.close()
        assert excinfo.value.code == 422
        assert fake_kube.spec_replicas == 0
        # The driver copies the list into ScenarioResult.scale_patch_violations.
        [violation] = fake_kube.scale_patch_violations
        assert violation.startswith("PATCH /apis/apps/v1/namespaces/ci/deployments/gha-runner at ")
        assert (content_type in violation) == (content_type != MERGE_PATCH)
        assert ("paused" in violation) == ("paused" in body["spec"])

    @pytest.mark.parametrize(
        "body",
        [{"metadata": {"annotations": {"k": "v"}, "labels": {"a": "b"}}}, {"metadata": {"annotations": ["k"]}}],
        ids=["extra-metadata-field", "annotations-not-a-map"],
    )
    def test_bad_annotation_only_patch_is_refused_and_flagged(self, fake_kube, body):
        url = f"{fake_kube.base_url}/apis/apps/v1/namespaces/ci/deployments/gha-runner"
        patch = urllib.request.Request(
            url, data=json.dumps(body).encode(), method="PATCH", headers={"Content-Type": MERGE_PATCH}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(patch)
        excinfo.value.close()
        assert excinfo.value.code == 422
        assert (fake_kube.spec_replicas, fake_kube.annotations) == (0, {})
        [violation] = fake_kube.scale_patch_violations
        assert violation.startswith("PATCH /apis/apps/v1/namespaces/ci/deployments/gha-runner at ")
        assert "body" in violation and "content type" not in violation

    def test_cluster_scoped_path_rejected(self, fake_kube):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{fake_kube.base_url}/apis/apps/v1/deployments")
        excinfo.value.close()
        assert excinfo.value.code == 403
        assert fake_kube.cross_namespace_requests == ["/apis/apps/v1/deployments"]

    def test_requests_are_counted_by_method_without_the_path_log(self, clock):
        kube = FakeKube(clock=clock).start()
        try:
            url = f"{kube.base_url}/apis/apps/v1/namespaces/ci/deployments/gha-runner"
            for _ in range(2):
                urllib.request.urlopen(url).close()
            patch = urllib.request.Request(url, data=b"{}", method="PATCH")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(patch)  # not merge-patch: answered 422, still counted
            excinfo.value.close()
        finally:
            kube.close()
        assert kube.requests_by_method == {"GET": 2, "PATCH": 1}
        assert kube.request_paths == []

    def test_fakes_refuse_a_clock_without_timers_when_built(self):
        # Pods start and jobs complete on call_at timers, which the wall
        # clock has not: the mistake fails here, not at the first scale-up.
        with pytest.raises(TypeError, match="FakeKube needs a TimerClock"):
            FakeKube(clock=SystemClock())
        github = FakeGitHub(expected_token="t", clock=SystemClock())
        with pytest.raises(TypeError, match="RunnerWorld needs a TimerClock"):
            RunnerWorld(github, labels=[], clock=SystemClock(), on_event=lambda action, detail: None)


class TestFakeHttpServer:
    @pytest.mark.parametrize("length", ["abc", "-5", ""])
    def test_a_malformed_content_length_is_answered_400_and_the_connection_closed(self, length):
        handled = []
        server = HttpServer(lambda request: handled.append(request) or Response(200))
        server.start()
        try:
            origin = urlsplit(server.base_url)
            with socket.create_connection((origin.hostname, origin.port), timeout=10) as conn:
                conn.sendall(f"POST /x HTTP/1.1\r\nContent-Length: {length}\r\n\r\n0123456789".encode())
                reply = b""
                while chunk := conn.recv(65536):  # ends when the server closes
                    reply += chunk
        finally:
            server.close()
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert f"malformed Content-Length {length!r}".encode() in reply
        assert handled == []

    def test_requests_through_one_transport_share_one_connection(self, fake_github, monkeypatch):
        connects = []
        connect = http.client.HTTPConnection.connect

        def counted_connect(conn):
            connects.append(conn.port)
            return connect(conn)

        monkeypatch.setattr(http.client.HTTPConnection, "connect", counted_connect)
        headers = {"Authorization": f"Bearer {fake_github.expected_token}", **REQUIRED_HEADERS}
        path = f"/repos/{OWNER}/{REPO}/actions/runs"
        with closing(HttpTransport(fake_github.base_url)) as transport:
            statuses = [transport.request("GET", path, headers).status for _ in range(3)]
        assert statuses == [200, 200, 200]
        # The server keeps the connection open between requests.
        assert connects == [urlsplit(fake_github.base_url).port]


def _fresh_python(code: str) -> str:
    """What ``code`` prints in a new interpreter that imports the package from src."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


# The HTTP client, HTTP server and TLS stacks, and the status endpoint that
# serves over them; only code that opens a socket may load them.
WIRE_MODULES = (
    "http.client", "http.server", "socketserver", "ssl", "socket", "email", "urllib.request",
    "runner_manager.status",
)


class TestWireLoadsOnDemand:
    def test_a_scenario_loads_no_wire_module(self):
        code = f"""
import json, sys
from runner_manager.harness.driver import run_scenario
from runner_manager.harness.scenario import ScenarioEvent, ScenarioScript
result = run_scenario(ScenarioScript(horizon=300, events=[ScenarioEvent(at=10, kind="enqueue_job")]))
print(json.dumps([result.failure_reasons, result.writes, sorted(set({WIRE_MODULES!r}) & set(sys.modules))]))
"""
        reasons, writes, loaded = json.loads(_fresh_python(code))
        assert reasons == [] and writes, "the scenario must run a job to prove anything"
        assert loaded == [], f"a scenario loaded wire modules: {loaded}"

    def test_a_scenario_loads_no_judge(self):
        # The monitors and the CLI judge a finished run; the benchmark times
        # a scenario's set-up and memory without them.
        code = """
import sys
from runner_manager.harness.driver import run_scenario
from runner_manager.harness.scenario import ScenarioScript
run_scenario(ScenarioScript(horizon=300))
print(sorted({"runner_manager.harness.monitors", "runner_manager.harness.cli"} & set(sys.modules)))
"""
        assert _fresh_python(code) == "[]"

    @pytest.mark.parametrize("scheme", ["http", "https"])
    def test_a_transport_imports_what_it_connects_and_catches_with(self, scheme):
        # The child loads http.client only inside request(); a refused
        # connection must still end as TransientError, not a NameError.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]  # closed again when the block ends
        code = f"""
import sys
from runner_manager.errors import TransientError
from runner_manager.transport import HttpTransport
loaded_before = "http.client" in sys.modules
try:
    HttpTransport("{scheme}://127.0.0.1:{port}").request("GET", "/", {{}})
except TransientError:
    print(loaded_before, "TransientError")
"""
        assert _fresh_python(code) == "False TransientError"


class TestScenarioScripts:
    def test_yaml_roundtrip(self, tmp_path):
        script = generate_random_script(3, with_restarts=True)
        path = tmp_path / "scenario.yaml"
        import yaml

        path.write_text(yaml.safe_dump(script_to_dict(script)))
        loaded = load_script(str(path))
        assert script_to_dict(loaded) == script_to_dict(script)

    def test_harness_imports_no_yaml(self):
        # Only load_script reads YAML; importing the harness leaves it out.
        code = "import sys, runner_manager, runner_manager.harness; print('yaml' in sys.modules)"
        assert _fresh_python(code) == "False"

    def test_reading_scripts_loads_no_http_stack_and_no_oracle(self):
        code = (
            "import sys, runner_manager.harness.scenario; "
            "print(sorted({'http.client', 'socket', 'runner_manager.harness.oracle'} & set(sys.modules)))"
        )
        assert _fresh_python(code) == "[]"

    def test_json_scripts_load_too(self, tmp_path):
        import json

        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {
                    "horizon": 300,
                    "events": [
                        {"at": 10, "kind": "enqueue_job", "labels": ["self-hosted"], "duration": 30}
                    ],
                }
            )
        )
        loaded = load_script(str(path))
        assert loaded.horizon == 300
        assert loaded.events[0].kind == "enqueue_job"

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            ScenarioScript(horizon=100, events=[ScenarioEvent(at=1, kind="explode")])

    @pytest.mark.parametrize(
        "policy,message",
        [("{max_runner: 2}", "max_runner"), ("{min_dwell: 10s}", "min_dwell >= poll_interval")],
    )
    def test_policy_block_is_checked_when_the_script_is_loaded(self, tmp_path, policy, message):
        path = tmp_path / "scenario.yaml"
        path.write_text(f"horizon: 600\npolicy: {policy}\n")
        with pytest.raises(ValueError, match=message):
            load_script(str(path))

    @pytest.mark.parametrize("kind", ["rate_limit", "secondary_rate_limit"])
    @pytest.mark.parametrize("retry_after", [0, -5, 1.5, float("nan")])
    def test_rate_limit_events_need_a_positive_whole_retry_after(self, kind, retry_after):
        # The Retry-After header carries whole seconds; 1.5 would reach the
        # manager as 1 and the oracle as 1.5.
        with pytest.raises(ValueError, match=f"{kind} retry_after must be a positive whole number"):
            ScenarioScript(horizon=100, events=[ScenarioEvent(at=1, kind=kind, payload={"retry_after": retry_after})])

    @pytest.mark.parametrize("status", [200, 399, 600, 503.5])
    def test_kube_fault_status_must_be_an_error_status(self, status):
        with pytest.raises(ValueError, match="kube_fault status must be a whole number from 400 to 599"):
            ScenarioScript(horizon=100, events=[ScenarioEvent(at=1, kind="kube_fault", payload={"status": status})])

    def test_complete_job_needs_known_ref(self):
        with pytest.raises(ValueError, match="previously enqueued"):
            ScenarioScript(
                horizon=100, events=[ScenarioEvent(at=1, kind="complete_job", payload={"ref": "x"})]
            )


class TestScenarioDriver:
    def test_identical_scripts_produce_identical_traces(self):
        script = generate_random_script(11, with_faults=True, with_restarts=True)
        first = run_scenario(script)
        second = run_scenario(script)
        assert not first.scenario_failed
        assert first.trace.fingerprint() == second.trace.fingerprint()
        assert first.decisions == second.decisions

    def test_trace_entries_time_ordered(self):
        script = generate_random_script(5, with_faults=True)
        result = run_scenario(script)
        times = [entry.at for entry in result.trace.entries]
        assert times == sorted(times)

    def test_pod_startup_delay_shows_spec_status_lag(self):
        script = ScenarioScript(
            horizon=240,
            events=[ScenarioEvent(at=5, kind="enqueue_job", payload={"duration": 60})],
            pod_startup_delay=20,
            initial_last_active=0,
        )
        result = run_scenario(script)
        registered = result.trace.select(actor="fake_runner", action="runner_registered")
        assert len(registered) == 1
        write_at = result.writes[0][0]
        assert registered[0].at == pytest.approx(write_at + 20)

    def test_a_request_outside_the_role_fails_the_scenario(self, monkeypatch):
        # The manager lists pods once; the Role does not grant it, so fake
        # Kubernetes refuses it and the scenario fails, naming the path.
        observe_kube = ReconcileLoop._observe_kube
        listed = []

        def observe_kube_and_list_pods(loop):
            if not listed:
                listed.append(True)
                try:
                    loop.kube.list_runner_pods("app=gha-runner")
                except CredentialError:
                    pass
            return observe_kube(loop)

        monkeypatch.setattr(ReconcileLoop, "_observe_kube", observe_kube_and_list_pods)
        result = run_scenario(ScenarioScript(horizon=180, events=[], initial_last_active=0))
        assert result.scenario_failed
        assert result.cross_namespace_requests == ["/api/v1/namespaces/ci/pods"]
        assert any("/api/v1/namespaces/ci/pods" in reason for reason in result.failure_reasons)

    def test_a_scenario_runs_on_the_callers_thread_and_opens_no_socket(self, monkeypatch):
        def no_socket(*args, **kwargs):
            raise AssertionError("a scenario opened a socket")

        monkeypatch.setattr(socket, "socket", no_socket)
        reconcile_once = ReconcileLoop.reconcile_once
        polled_on = set()

        def recording_reconcile_once(loop, tick):
            polled_on.add((threading.get_ident(), threading.active_count()))
            return reconcile_once(loop, tick)

        monkeypatch.setattr(ReconcileLoop, "reconcile_once", recording_reconcile_once)
        before = threading.active_count()
        script = ScenarioScript(
            horizon=900,
            events=[
                ScenarioEvent(at=10, kind="enqueue_job", payload={"duration": 120}),
                ScenarioEvent(at=300, kind="restart_manager", payload={"downtime": 30}),
                ScenarioEvent(at=400, kind="enqueue_job", payload={"duration": 60}),
            ],
            initial_last_active=0,
        )
        result = run_scenario(script)
        assert not result.scenario_failed, result.failure_reasons
        assert result.manager_exit_codes == [0, 0]
        assert [replicas for _, replicas in result.writes] == [1, 0, 1, 0]
        assert polled_on == {(threading.get_ident(), before)}
        assert threading.active_count() == before

    @pytest.mark.parametrize("error", [RuntimeError("boom"), _ManagerEnds()], ids=["RuntimeError", "BaseException"])
    def test_a_manager_that_raises_fails_the_scenario_and_the_run_returns(self, monkeypatch, error):
        reconcile_once = ReconcileLoop.reconcile_once
        polls = []

        def raising_on_the_second_poll(loop, tick):
            polls.append(tick)
            if len(polls) == 2:
                raise error
            return reconcile_once(loop, tick)

        monkeypatch.setattr(ReconcileLoop, "reconcile_once", raising_on_the_second_poll)
        result = run_scenario(ScenarioScript(horizon=600, events=[], initial_last_active=0))
        assert result.failure_reasons == [f"manager exited unexpectedly with code -1: {error!r}"]
        assert result.manager_exit_codes == [-1]
        assert len(result.decisions) == len(polls) - 1 == 1  # nothing ran after the raise

    def test_a_keyboard_interrupt_in_the_manager_ends_the_run(self, monkeypatch):
        def interrupted(loop, tick):
            raise KeyboardInterrupt

        monkeypatch.setattr(ReconcileLoop, "reconcile_once", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_scenario(ScenarioScript(horizon=600, events=[]))

    def _harness_run_fails(self, tmp_path, capsys) -> list[str]:
        """``harness run`` on a script whose first poll writes a keepalive:
        the scenario must fail, with exit code 1; returns its reasons."""
        script_path = tmp_path / "scenario.json"
        script_path.write_text(json.dumps(script_to_dict(ScenarioScript(horizon=180, events=[]))))
        assert harness_cli.main(["run", "--script", str(script_path)]) == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["scenario_failed"] is True
        return summary["failure_reasons"]

    def test_a_github_header_violation_fails_the_scenario(self, monkeypatch, tmp_path, capsys):
        headers = GitHubClient._headers
        monkeypatch.setattr(GitHubClient, "_headers", lambda client: {**headers(client), "Accept": "application/json"})
        [reason] = self._harness_run_fails(tmp_path, capsys)
        assert reason.startswith("GitHub requests with wrong headers") and "header accept=" in reason

    def test_a_refused_deployment_patch_fails_the_scenario(self, monkeypatch, tmp_path, capsys):
        def json_patch(client, patch):
            body = json.dumps(patch).encode()
            return client._request("PATCH", client._deployment_path(), body=body, content_type="application/json")

        monkeypatch.setattr(KubeClient, "_merge_patch", json_patch)
        [reason] = self._harness_run_fails(tmp_path, capsys)
        assert reason.startswith("refused Deployment patches") and "content type 'application/json'" in reason
