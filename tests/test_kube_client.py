import re
import threading
from contextlib import closing, contextmanager

import pytest

from runner_manager.clock import to_rfc3339
from runner_manager.config import IN_CLUSTER, Config, Policy, RepoCoordinates
from runner_manager.errors import ConfigError, MissingDeploymentError, ProtocolError, TransientError
from runner_manager.harness.fake_kube import FakePod
from runner_manager.harness.httpserver import Response
from runner_manager.harness.wire import FakeHttpServer
from runner_manager.kube import KubeClient, KubeCredentials, resolve_credentials
from runner_manager.reconciler import (
    ANNOTATION_KEEPALIVE_STARTED,
    ANNOTATION_LAST_ACTIVE,
    Reason,
    ReconcileLoop,
)

NAMESPACED = re.compile(r"^/(apis/apps/v1|api/v1)/namespaces/ci/")


def _mount(tmp_path, token="T", namespace="ci", ca=None):
    (tmp_path / "token").write_text(token)
    if namespace is not None:
        (tmp_path / "namespace").write_text(namespace)
    if ca:
        (tmp_path / "ca.crt").write_text(ca)
    return str(tmp_path)


def _config(mount: str, kube_api: str = IN_CLUSTER) -> Config:
    return Config(RepoCoordinates("o", "r"), Policy(), "gha-runner", kube_api_base=kube_api, kube_sa_dir=mount)


@contextmanager
def _one_route_client(handle):
    """A KubeClient for namespace ``ci`` bound to a server answering every
    request with ``handle``."""
    server = FakeHttpServer(handle)
    server.start()
    try:
        creds = KubeCredentials(api_base=server.base_url, bearer_token="t", ca_bundle=None, namespace="ci")
        with closing(KubeClient(creds, "gha-runner", max_replicas=1)) as client:
            yield client
    finally:
        server.close()


def test_incluster_credentials_echo_mounted_files(tmp_path):
    creds = resolve_credentials(
        _config(_mount(tmp_path)), {"KUBERNETES_SERVICE_HOST": "10.0.0.1", "KUBERNETES_SERVICE_PORT": "443"}
    )
    assert creds.bearer_token == "T"
    assert creds.namespace == "ci"
    assert creds.api_base == "https://10.0.0.1:443"


def test_missing_namespace_file_is_config_error(tmp_path):
    (tmp_path / "token").write_text("T")
    with pytest.raises(ConfigError, match="namespace"):
        resolve_credentials(_config(str(tmp_path)), {"KUBERNETES_SERVICE_HOST": "x"})


def test_empty_service_account_token_is_config_error(tmp_path):
    mount = _mount(tmp_path, token="\n")
    with pytest.raises(ConfigError, match=f"service account token file is empty: {tmp_path / 'token'}"):
        resolve_credentials(_config(mount), {"KUBERNETES_SERVICE_HOST": "x", "KUBE_TOKEN": "from-the-environment"})


def test_api_override_keeps_mounted_token(tmp_path):
    creds = resolve_credentials(_config(_mount(tmp_path), "http://127.0.0.1:9999"), {})
    assert creds.api_base == "http://127.0.0.1:9999"
    assert creds.bearer_token == "T"
    assert creds.ca_bundle is None  # plain http harness endpoint


def test_read_scale_sees_seeded_replicas(fake_kube, kube_client):
    fake_kube.apply_scale(1)
    fake_kube.annotations["k"] = "v"
    snapshot = kube_client.read_scale()
    # One GET of the Deployment carries replicas and annotations alike.
    assert fake_kube.request_paths == ["/apis/apps/v1/namespaces/ci/deployments/gha-runner"]
    assert (snapshot.spec_replicas, snapshot.ready_replicas, snapshot.annotations) == (1, 1, {"k": "v"})


def test_missing_deployment_is_fatal_classification(fake_kube):
    creds = KubeCredentials(
        api_base=fake_kube.base_url, bearer_token="t", ca_bundle=None, namespace="ci"
    )
    with closing(KubeClient(creds, "other-deployment", max_replicas=1)) as client:
        with pytest.raises(MissingDeploymentError):
            client.read_scale()


def test_status_lag_reported_distinctly(fake_kube, kube_client):
    # Spec says one and the pod exists, but it is still Pending: the
    # Deployment reports replicas 1 and, like the API server, leaves the
    # zero readyReplicas out.
    fake_kube.spec_replicas = 1
    fake_kube.pods.append(FakePod(name="gha-runner-1", phase="Pending"))
    snapshot = kube_client.read_scale()
    assert (snapshot.spec_replicas, snapshot.ready_replicas) == (1, 0)


def test_write_then_read_scale(fake_kube, kube_client):
    assert kube_client.write_scale(1, {}) == 1
    assert kube_client.read_scale().spec_replicas == 1


def test_write_scale_carries_annotations_in_one_deployment_patch(fake_kube, kube_client):
    fake_kube.annotations["old"] = "x"
    replica_writes = []
    fake_kube.on_scale_write = lambda at, replicas: replica_writes.append(replicas)
    assert kube_client.write_scale(1, {"k": "v", "old": None}) == 1
    assert fake_kube.request_paths == ["/apis/apps/v1/namespaces/ci/deployments/gha-runner"]
    assert (fake_kube.spec_replicas, fake_kube.annotations) == (1, {"k": "v"})
    assert (replica_writes, fake_kube.scale_patch_violations) == ([1], [])


def test_write_equal_to_current_is_permitted(fake_kube, kube_client):
    kube_client.write_scale(0, {})
    assert kube_client.read_scale().spec_replicas == 0


def test_write_above_max_rejected_before_any_http(fake_kube, kube_client):
    before = len(fake_kube.request_paths)
    with pytest.raises(ValueError):
        kube_client.write_scale(2, {})
    assert len(fake_kube.request_paths) == before


def test_annotation_roundtrip(fake_kube, kube_client):
    kube_client.write_annotation({"runner-manager/last-active": "2024-01-01T00:00:00Z"})
    annotations = kube_client.read_annotations()
    assert annotations["runner-manager/last-active"] == "2024-01-01T00:00:00Z"


def test_annotations_absent_on_fresh_deployment(kube_client):
    assert "runner-manager/last-active" not in kube_client.read_annotations()


def test_annotation_last_write_wins_and_null_deletes(fake_kube, kube_client):
    kube_client.write_annotation({"k": "v1"})
    kube_client.write_annotation({"k": "v2"})
    assert kube_client.read_annotations()["k"] == "v2"
    kube_client.write_annotation({"k": None})
    assert "k" not in kube_client.read_annotations()


def test_poll_changing_both_annotations_sends_one_patch(fake_kube, kube_client, gh_client, clock, monkeypatch):
    # A Running runner and no annotations: the poll records activity and
    # starts a keepalive dwell, so both annotations change at once.
    fake_kube.apply_scale(1)
    methods = []
    request = kube_client._request

    def recording_request(method, path, *args, **kwargs):
        methods.append(method)
        return request(method, path, *args, **kwargs)

    monkeypatch.setattr(kube_client, "_request", recording_request)
    repo = RepoCoordinates("biocore", "unifrac")
    loop = ReconcileLoop(gh_client, kube_client, Policy(), clock, repo, threading.Event())
    clock.advance(100)
    record = loop.reconcile_once(clock.now())
    assert (record.reason, record.wrote_scale) == (Reason.KEEPALIVE, False)
    assert methods.count("PATCH") == 1
    assert fake_kube.annotations == {
        ANNOTATION_LAST_ACTIVE: to_rfc3339(100),
        ANNOTATION_KEEPALIVE_STARTED: to_rfc3339(100),
    }


def test_pod_listing_matches_selector():
    seen = []

    def handle(request):
        seen.append((request.method, request.path, request.query))
        pod = {"metadata": {"name": "gha-runner-1", "namespace": "ci"}, "status": {"phase": "Running"}}
        return Response.json(200, {"kind": "PodList", "items": [pod, {"metadata": {}, "status": {"phase": "Gone"}}]})

    with _one_route_client(handle) as client:
        pods = client.list_runner_pods("app=gha-runner")
    assert [(pod.name, pod.phase) for pod in pods] == [("gha-runner-1", "Running"), ("", "Unknown")]
    assert seen == [("GET", "/api/v1/namespaces/ci/pods", {"labelSelector": "app=gha-runner"})]


def test_pod_listing_empty_at_zero_replicas():
    with _one_route_client(lambda request: Response.json(200, {"kind": "PodList", "items": []})) as client:
        assert client.list_runner_pods("app=gha-runner") == []


def test_every_request_is_namespaced(fake_kube, kube_client):
    kube_client.read_scale()
    kube_client.write_scale(1, {})
    kube_client.read_annotations()
    kube_client.write_annotation({"a": "b"})
    assert fake_kube.request_paths, "fake kube recorded no requests"
    for path in fake_kube.request_paths:
        assert NAMESPACED.match(path), path
    assert fake_kube.cross_namespace_requests == []


def test_scale_and_annotations_are_isolated(fake_kube, kube_client):
    kube_client.write_annotation({"k": "v"})
    replicas_before = fake_kube.spec_replicas
    annotations_before = dict(fake_kube.annotations)
    kube_client.write_scale(1, {})
    assert fake_kube.annotations == annotations_before
    kube_client.write_annotation({"k2": "v2"})
    assert fake_kube.spec_replicas == 1
    assert replicas_before == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda c: c.read_scale(),
        lambda c: c.list_runner_pods("app=gha-runner"),
        lambda c: c.read_annotations(),
        lambda c: c.write_scale(1, {}),
        lambda c: c.write_annotation({"k": "v"}),
    ],
    ids=["read-scale", "list-pods", "read-annotations", "write-scale", "write-annotation"],
)
def test_throttling_429_is_transient(call):
    # API Priority and Fairness sheds load with 429 and a Retry-After.
    def handle(request):
        return Response.json(429, {"kind": "Status", "reason": "TooManyRequests"}, {"Retry-After": "1"})

    with _one_route_client(handle) as client, pytest.raises(TransientError):
        call(client)


def test_kube_fault_is_transient(fake_kube, kube_client):
    fake_kube.set_fault(500)
    with pytest.raises(TransientError):
        kube_client.read_scale()


@pytest.mark.parametrize(
    "body, call",
    [
        ({"kind": "PodList", "items": [None]}, lambda c: c.list_runner_pods("app=gha-runner")),
        ({"kind": "PodList", "items": [{"metadata": {"name": "p"}, "status": "Running"}]},
         lambda c: c.list_runner_pods("app=gha-runner")),
        ({"kind": "PodList", "items": [{"metadata": "p", "status": {"phase": "Running"}}]},
         lambda c: c.list_runner_pods("app=gha-runner")),
        ({"kind": "Deployment", "spec": [1], "status": {"readyReplicas": 1}}, lambda c: c.read_scale()),
        ({"kind": "Deployment", "spec": {"replicas": 1}, "status": "ready"}, lambda c: c.read_scale()),
        ({"kind": "Deployment", "spec": {"replicas": 1}, "status": {"readyReplicas": "one"}},
         lambda c: c.read_scale()),
        ({"kind": "Deployment", "metadata": "gha-runner"}, lambda c: c.read_scale()),
        ({"kind": "Deployment", "metadata": {"annotations": ["k"]}}, lambda c: c.read_scale()),
        ({"kind": "Deployment", "spec": {"replicas": None}}, lambda c: c.write_scale(1, {})),
        (b"<html>nope</html>", lambda c: c.read_scale()),
        ([{"kind": "Deployment"}], lambda c: c.read_scale()),
    ],
    ids=["null-pod", "string-status", "string-metadata", "list-spec", "string-deployment-status",
         "string-ready-replicas", "string-deployment-metadata", "list-annotations", "null-written-replicas",
         "body-not-json", "body-not-an-object"],
)
def test_malformed_body_is_protocol_error(body, call):
    answer = Response(200, body, "text/html") if isinstance(body, bytes) else Response.json(200, body)
    with _one_route_client(lambda request: answer) as client, pytest.raises(ProtocolError):
        call(client)
