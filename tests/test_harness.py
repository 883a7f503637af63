"""The testbed itself: virtual clock, fake servers, scenario driver."""

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from runner_manager.clock import SystemClock
from runner_manager.config import RepoCoordinates
from runner_manager.errors import TransientError
from runner_manager.harness.driver import run_scenario
from runner_manager.harness.fake_github import FakeGitHub
from runner_manager.harness.fake_kube import MERGE_PATCH, FakeKube
from runner_manager.harness.fake_runner import RunnerWorld
from runner_manager.harness.scenario import (
    ScenarioEvent,
    ScenarioScript,
    generate_random_script,
    load_script,
    script_to_dict,
)
from runner_manager.harness.virtual_clock import SIM_EPOCH, VirtualClock


class TestVirtualClock:
    def test_time_advances_only_by_driver(self):
        clock = VirtualClock()
        assert clock.now() == SIM_EPOCH
        clock.advance_to(SIM_EPOCH + 10)
        assert clock.now() == SIM_EPOCH + 10
        with pytest.raises(ValueError):
            clock.advance_to(SIM_EPOCH)

    def test_actor_wakes_at_deadline(self):
        clock = VirtualClock()
        woke_at = []

        def actor():
            clock.wait_until(SIM_EPOCH + 30, threading.Event())
            woke_at.append(clock.now())

        clock.register_actor()
        thread = threading.Thread(target=lambda: (actor(), clock.actor_done()))
        thread.start()
        clock.wait_quiescent()
        assert clock.next_deadline() == SIM_EPOCH + 30
        clock.advance_to(SIM_EPOCH + 30)
        clock.release_due()
        thread.join(timeout=5)
        assert woke_at == [SIM_EPOCH + 30]

    def test_timers_run_in_time_order_and_count_as_deadlines(self):
        clock = VirtualClock()
        ran = []

        def set_another():
            ran.append("c")
            clock.call_at(SIM_EPOCH + 5, lambda: ran.append("d"))

        clock.call_at(SIM_EPOCH + 5, lambda: ran.append("b"))
        clock.call_at(SIM_EPOCH + 5, set_another)
        clock.call_at(SIM_EPOCH - 1, lambda: ran.append("a"))
        clock.run_due()
        assert ran == ["a"]
        assert clock.next_deadline() == SIM_EPOCH + 5
        clock.advance_to(SIM_EPOCH + 5)
        clock.run_due()
        assert ran == ["a", "b", "c", "d"]
        assert clock.next_deadline() is None

    def test_kick_releases_interrupted_waiters(self):
        clock = VirtualClock()
        stop = threading.Event()
        released = threading.Event()

        def actor():
            clock.wait_until(SIM_EPOCH + 1e9, interrupt=stop)
            released.set()
            clock.actor_done()

        clock.register_actor()
        threading.Thread(target=actor).start()
        clock.wait_quiescent()
        stop.set()
        clock.kick()
        assert released.wait(timeout=5)


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
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = "import sys, runner_manager, runner_manager.harness; print('yaml' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

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
