import http.client
import json
import logging
import socket
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runner_manager.clock import SystemClock
from runner_manager.reconciler import Reason, ReconcileRecord
from runner_manager.status import HttpServer, StatusServer, parse_listen_address

from conftest import SteppingClock


def _record(**overrides) -> ReconcileRecord:
    fields = dict(
        tick=1704067200.0,
        decided_at=1704067200.0,
        queued=0,
        in_progress=0,
        observed_replicas=0,
        observed_at=1704067200.0,
        desired=0,
        reason=Reason.IDLE,
        wrote_scale=False,
        consecutive_github_errors=0,
        consecutive_kube_errors=0,
        last_active=None,
        keepalive_next_due=None,
        github_rate_limit_remaining=None,
    )
    fields.update(overrides)
    return ReconcileRecord(**fields)


@pytest.fixture
def server():
    server = StatusServer("127.0.0.1:0", SystemClock(), poll_interval=60.0)
    server.start()
    yield server
    server.close()


def _get(server: StatusServer, path: str):
    host, port = server.address
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=5) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        exc.close()  # the error holds the response; callers only read its code
        raise


def test_healthz_ok_while_alive(server):
    assert _get(server, "/healthz") == (200, b"ok")


def _healthz_code(server: StatusServer) -> int:
    try:
        return _get(server, "/healthz")[0]
    except urllib.error.HTTPError as exc:
        return exc.code


def test_healthz_fails_once_no_poll_was_decided_within_two_intervals():
    clock = SteppingClock(start=1000.0)
    server = StatusServer("127.0.0.1:0", clock, poll_interval=60.0)
    server.start()
    try:
        # Before the first record the limit runs from start-up.
        clock.t = 1000.0 + 119.5
        assert _healthz_code(server) == 200
        clock.t = 1000.0 + 120.5
        assert _healthz_code(server) == 503
        server.publish(_record(decided_at=1150.0))
        clock.t = 1150.0 + 119.5
        assert _healthz_code(server) == 200
        clock.t = 1150.0 + 120.5
        assert _healthz_code(server) == 503
    finally:
        server.close()


def test_fresh_status_has_null_last_poll(server):
    status, body = _get(server, "/status")
    report = json.loads(body)
    assert status == 200
    assert report["last_poll_time"] is None
    assert report["last_decision"] is None


def test_status_after_one_poll(server):
    server.publish(_record())
    _, body = _get(server, "/status")
    report = json.loads(body)
    assert report["consecutive_github_errors"] == 0
    assert report["last_decision"] == {"target_replicas": 0, "reason": "idle"}
    assert report["last_poll_time"] == "2024-01-01T00:00:00Z"


tokens = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), min_codepoint=33, max_codepoint=126),
    min_size=12,
    max_size=40,
)


@settings(max_examples=25, deadline=None)
@given(token=tokens, queued=st.integers(0, 10), errors=st.integers(0, 5))
def test_token_never_appears_in_serialized_status(token, queued, errors):
    # The report is built from loop state only; whatever the credential is,
    # its value must never surface in the serialized body.
    record = _record(
        tick=0.0,
        decided_at=0.0,
        queued=queued,
        observed_replicas=1,
        desired=1,
        reason=Reason.DEMAND,
        wrote_scale=True,
        consecutive_github_errors=errors,
        consecutive_kube_errors=errors,
        keepalive_next_due=42.0,
    )
    body = json.dumps(record.as_status_dict())
    assert token not in body


def test_status_keys_before_and_after_first_poll(server):
    _, before = _get(server, "/status")
    assert json.loads(before) == {
        "last_poll_time": None,
        "last_decision": None,
        "observed_replicas": None,
        "observed_at": None,
        "consecutive_github_errors": 0,
        "consecutive_kube_errors": 0,
        "last_active": None,
        "keepalive_next_due": None,
        "github_rate_limit_remaining": None,
    }
    server.publish(
        _record(
            observed_replicas=1,
            desired=1,
            reason=Reason.KEEPALIVE,
            consecutive_github_errors=2,
            consecutive_kube_errors=1,
            last_active=1704067140.25,
            keepalive_next_due=1704067200.5,
            github_rate_limit_remaining=4998,
        )
    )
    _, after = _get(server, "/status")
    assert json.loads(after) == {
        "last_poll_time": "2024-01-01T00:00:00Z",
        "last_decision": {"target_replicas": 1, "reason": "keepalive"},
        "observed_replicas": 1,
        "observed_at": "2024-01-01T00:00:00Z",
        "consecutive_github_errors": 2,
        "consecutive_kube_errors": 1,
        "last_active": "2023-12-31T23:59:00.250000Z",
        "keepalive_next_due": "2024-01-01T00:00:00.500000Z",
        "github_rate_limit_remaining": 4998,
    }


def test_unknown_path_is_404(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server, "/metrics")
    assert excinfo.value.code == 404


@pytest.mark.parametrize(
    "method, path, headers, expected",
    [
        ("GET", "/healthz?probe=1", {}, 200),  # the query is not part of the path
        ("POST", "/status", {}, 404),
        ("OPTIONS", "/status", {}, 404),
        ("GET", "/status", {"Content-Length": "abc"}, 400),
        ("POST", "/status", {"Content-Length": str(1 << 40)}, 413),  # answered without reading a byte
    ],
    ids=["query", "post", "options", "malformed-length", "oversized-body"],
)
def test_status_server_answers_like_any_handler(server, method, path, headers, expected):
    conn = http.client.HTTPConnection(*server.address, timeout=5)
    try:
        conn.request(method, path, headers=headers)
        assert conn.getresponse().status == expected
    finally:
        conn.close()


def test_head_is_answered_404_without_a_body_on_a_kept_connection(server):
    # Both requests go out at once on one connection: a body after the HEAD
    # answer would sit where the GET's answer must start. (http.client would
    # not show it: its reader drops what it buffered past a HEAD answer.)
    with socket.create_connection(server.address, timeout=5) as conn:
        conn.sendall(
            b"HEAD /status HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /status HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        received = b""
        while chunk := conn.recv(65536):
            received += chunk
    head, _, rest = received.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 404 ")
    status, _, body = rest.partition(b"\r\n\r\n")
    assert status.startswith(b"HTTP/1.1 200 ")
    assert json.loads(body)["last_poll_time"] is None


def test_handler_error_is_logged_and_answered_500_without_detail(caplog):
    def handle(request):
        raise RuntimeError("secret detail")

    server = HttpServer(handle)
    server.start()
    conn = http.client.HTTPConnection(*server.server_address[:2], timeout=5)
    try:
        with caplog.at_level(logging.ERROR, logger="runner_manager.transport"):
            conn.request("GET", "/status")
            response = conn.getresponse()
            body = response.read()
    finally:
        conn.close()
        server.close()
    assert response.status == 500
    assert json.loads(body) == {"message": "server handler error"}
    [record] = caplog.records
    assert "GET /status" in record.getMessage()
    assert record.exc_info[0] is RuntimeError


@pytest.mark.parametrize(
    "addr,expected",
    [("127.0.0.1:8080", ("127.0.0.1", 8080)), (":9000", ("", 9000))],
)
def test_listen_address_parsing(addr, expected):
    assert parse_listen_address(addr) == expected


def test_running_service_serves_status_without_leaking_token():
    import socket
    import time

    from runner_manager.config import Config, Policy, RepoCoordinates
    from runner_manager.github import GitHubClient
    from runner_manager.harness.fake_github import FakeGitHub
    from runner_manager.harness.fake_kube import FakeKube
    from runner_manager.kube import KubeClient, KubeCredentials
    from runner_manager.service import run_service

    secret = "ghp-EXTREMELY-SECRET-VALUE"
    clock = SystemClock()
    github = FakeGitHub(expected_token=secret, clock=clock).start()
    kube = FakeKube(clock=SteppingClock()).start()  # its pods start at once
    # Probe for the status port only once the fakes hold theirs, so neither
    # can be handed the port the probe frees.
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    stop = threading.Event()
    config = Config(
        repo=RepoCoordinates("biocore", "unifrac"),
        # /healthz wants a poll decided within 2 x poll_interval, so the
        # interval must stay well above the host's scheduling jitter.
        policy=Policy(poll_interval=0.5, min_dwell=0.5, force_interval=3600.0),
        kube_deployment="gha-runner",
        github_api_base=github.base_url,
        github_token=secret,
        kube_namespace="ci",
        kube_api_base=kube.base_url,
        kube_sa_dir="/nonexistent",
        status_addr=f"127.0.0.1:{port}",
    )
    github_client = GitHubClient(github.base_url, secret, clock=clock)
    kube_client = KubeClient(
        KubeCredentials(api_base=kube.base_url, bearer_token="sa", ca_bundle=None, namespace="ci"),
        "gha-runner",
        max_replicas=1,
    )
    thread = threading.Thread(
        target=lambda: run_service(
            config, clock=clock, stop=stop, github=github_client, kube=kube_client, environment={}
        )
    )
    thread.start()
    try:
        body = None
        deadline = time.time() + 5
        while time.time() < deadline:
            try:
                with urllib.request.urlopen(f"http://127.0.0.1:{port}/status", timeout=1) as resp:
                    body = resp.read().decode()
                report = json.loads(body)
                if report["last_poll_time"] is not None:
                    break
            except (urllib.error.URLError, ConnectionError):
                time.sleep(0.02)
        assert body is not None, "status endpoint never became reachable"
        assert secret not in body
        report = json.loads(body)
        assert report["consecutive_github_errors"] == 0
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=1) as resp:
            assert resp.read() == b"ok"
    finally:
        stop.set()
        thread.join(timeout=5)
        github_client.close()
        kube_client.close()
        github.close()
        kube.close()
    assert not thread.is_alive()
