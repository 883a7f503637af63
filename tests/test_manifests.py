import http.client
from pathlib import Path
from urllib.parse import urlsplit

import pytest
import yaml

import runner_manager.bootstrap.cli as bootstrap_cli
from runner_manager.bootstrap import emit_manifests
from runner_manager.config import Config, Policy, RepoCoordinates
from runner_manager.harness.fake_kube import MERGE_PATCH, validate_objects
from runner_manager.labels import LabelSet

EXAMPLE = Path(__file__).resolve().parent.parent / "deploy" / "example-manifests.yaml"


def _default_output():
    config = Config(
        repo=RepoCoordinates("biocore", "unifrac"),
        policy=Policy(),
        kube_deployment="gha-runner",
        kube_namespace="ci",
    )
    return emit_manifests(config)


def _runner_deployment(text):
    objs = list(yaml.safe_load_all(text))
    return next(
        o for o in objs if o and o.get("kind") == "Deployment" and o["metadata"]["name"] == "gha-runner"
    )


def test_runner_resources_match_defaults():
    deployment = _runner_deployment(_default_output())
    resources = deployment["spec"]["template"]["spec"]["containers"][0]["resources"]
    assert resources["requests"] == {
        "cpu": 4,
        "memory": "8Gi",
        "ephemeral-storage": "80Gi",
        "nvidia.com/gpu": 1,
    }


def test_runner_starts_at_zero_replicas():
    assert _runner_deployment(_default_output())["spec"]["replicas"] == 0


def test_only_the_manager_pod_mounts_a_service_account_token():
    # runner-bootstrap never calls the Kubernetes API; the manager does, with
    # the ServiceAccount token Kubernetes mounts by default.
    deployments = {
        o["metadata"]["name"]: o["spec"]["template"]["spec"]
        for o in yaml.safe_load_all(_default_output())
        if o and o.get("kind") == "Deployment"
    }
    assert deployments["gha-runner"]["automountServiceAccountToken"] is False
    assert "automountServiceAccountToken" not in deployments["gha-runner-manager"]


def test_labels_include_custom_os_string():
    assert "linux-gpu-cuda" in _default_output()


def test_manager_mounts_token_from_secret():
    objs = list(yaml.safe_load_all(_default_output()))
    manager = next(o for o in objs if o.get("kind") == "Deployment" and "manager" in o["metadata"]["name"])
    volumes = manager["spec"]["template"]["spec"]["volumes"]
    assert any("secret" in v for v in volumes)
    env = manager["spec"]["template"]["spec"]["containers"][0]["env"]
    token_file = next(e for e in env if e["name"] == "GITHUB_TOKEN_FILE")
    assert token_file["value"].startswith("/secrets/")


def test_output_is_valid_yaml_and_passes_fake_validation():
    objs = [o for o in yaml.safe_load_all(_default_output()) if o]
    assert {o["kind"] for o in objs} >= {
        "Deployment",
        "ServiceAccount",
        "Secret",
        "PersistentVolumeClaim",
        "Role",
        "RoleBinding",
    }
    assert validate_objects(objs) == []


def test_output_deterministic():
    assert _default_output() == _default_output()


def test_custom_labels_come_from_the_policy():
    config = Config(
        repo=RepoCoordinates("o", "r"),
        policy=Policy(runner_labels=LabelSet(["self-hosted", "linux-rocm"])),
        kube_deployment="rocm-runner",
    )
    assert "linux-rocm" in emit_manifests(config)


def test_deploy_example_is_the_rendered_default(capsys):
    assert bootstrap_cli.main(["manifests", "--namespace", "my-namespace"]) == 0
    assert capsys.readouterr().out == EXAMPLE.read_text()


def test_role_grants_only_get_and_patch_on_the_deployment():
    objs = [o for o in yaml.safe_load_all(_default_output()) if o]
    role = next(o for o in objs if o["kind"] == "Role")
    # The loop GETs the Deployment and merge-patches it, replicas included;
    # it never touches /scale, and an HTTP PATCH needs only the verb patch.
    assert role["rules"] == [
        {"apiGroups": ["apps"], "resources": ["deployments"], "verbs": ["get", "patch"]},
    ]


_DEPLOYMENTS = "/apis/apps/v1/namespaces/{namespace}/deployments/gha-runner"


@pytest.mark.parametrize(
    "method, path, api_group, resource, verb",
    [
        ("GET", _DEPLOYMENTS, "apps", "deployments", "get"),
        ("PATCH", _DEPLOYMENTS, "apps", "deployments", "patch"),
        ("POST", "/apis/apps/v1/namespaces/{namespace}/deployments", "apps", "deployments", "create"),
        ("PUT", _DEPLOYMENTS, "apps", "deployments", "update"),
        ("DELETE", _DEPLOYMENTS, "apps", "deployments", "delete"),
        ("GET", _DEPLOYMENTS + "/scale", "apps", "deployments/scale", "get"),
        ("GET", "/api/v1/namespaces/{namespace}/pods", "", "pods", "list"),
    ],
    ids=["get", "patch", "create", "update", "delete", "get-scale", "list-pods"],
)
@pytest.mark.parametrize("namespace", ["ci", "other"])
def test_fake_kube_refuses_exactly_what_the_role_does_not_grant(
    fake_kube, namespace, method, path, api_group, resource, verb
):
    role = next(o for o in yaml.safe_load_all(_default_output()) if o and o["kind"] == "Role")
    granted = role["metadata"]["namespace"] == namespace and any(
        api_group in rule["apiGroups"] and resource in rule["resources"] and verb in rule["verbs"]
        for rule in role["rules"]
    )
    path = path.format(namespace=namespace)
    conn = http.client.HTTPConnection(urlsplit(fake_kube.base_url).netloc, timeout=10)
    try:
        conn.request(method, path, body=b'{"spec": {"replicas": 0}}', headers={"Content-Type": MERGE_PATCH})
        status = conn.getresponse().status
    finally:
        conn.close()
    assert (status == 403) == (not granted), status
    assert fake_kube.cross_namespace_requests == ([] if granted else [path])
