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


# Pod Security "restricted", written out by hand from
# https://kubernetes.io/docs/concepts/security/pod-security-standards/#restricted
# (the baseline controls it includes, then its own).
_RESTRICTED_VOLUMES = {
    "configMap", "csi", "downwardAPI", "emptyDir", "ephemeral", "persistentVolumeClaim", "projected", "secret"
}
_SAFE_SYSCTLS = {
    "kernel.shm_rmid_forced", "net.ipv4.ip_local_port_range", "net.ipv4.ip_unprivileged_port_start",
    "net.ipv4.tcp_syncookies", "net.ipv4.ping_group_range", "net.ipv4.ip_local_reserved_ports",
    "net.ipv4.tcp_keepalive_time", "net.ipv4.tcp_fin_timeout", "net.ipv4.tcp_keepalive_intvl",
    "net.ipv4.tcp_keepalive_probes",
}


def _restricted_violations(pod: dict) -> list[str]:
    """What keeps a pod spec out of the "restricted" profile; [] when it meets it."""
    found = []
    pod_context = pod.get("securityContext") or {}
    containers = [*pod.get("initContainers", []), *pod["containers"], *pod.get("ephemeralContainers", [])]
    for key in ("hostNetwork", "hostPID", "hostIPC"):
        if pod.get(key):
            found.append(key)
    for volume in pod.get("volumes", []):
        kinds = set(volume) - {"name"}
        if not kinds <= _RESTRICTED_VOLUMES:
            found.append(f"volume {volume['name']}: {sorted(kinds)}")
    for sysctl in pod_context.get("sysctls", []):
        if sysctl["name"] not in _SAFE_SYSCTLS:
            found.append(f"sysctl {sysctl['name']}")
    for where, context in [("pod", pod_context), *((c["name"], c.get("securityContext") or {}) for c in containers)]:
        if context.get("runAsUser") == 0:
            found.append(f"{where}: runAsUser 0")
        if (context.get("seccompProfile") or {}).get("type") not in (None, "RuntimeDefault", "Localhost"):
            found.append(f"{where}: seccompProfile {context['seccompProfile']}")
        selinux = context.get("seLinuxOptions") or {}
        if selinux.get("user") or selinux.get("role"):
            found.append(f"{where}: seLinuxOptions user or role")
        if selinux.get("type") not in (None, "", "container_t", "container_init_t", "container_kvm_t"):
            found.append(f"{where}: seLinuxOptions type {selinux['type']}")
    for container in containers:
        name, context = container["name"], container.get("securityContext") or {}
        if context.get("privileged"):
            found.append(f"{name}: privileged")
        if context.get("allowPrivilegeEscalation") is not False:
            found.append(f"{name}: allowPrivilegeEscalation is not false")
        capabilities = context.get("capabilities") or {}
        if "ALL" not in capabilities.get("drop", []):
            found.append(f"{name}: capabilities do not drop ALL")
        if set(capabilities.get("add", [])) - {"NET_BIND_SERVICE"}:
            found.append(f"{name}: capabilities add {capabilities['add']}")
        if not (context.get("runAsNonRoot", pod_context.get("runAsNonRoot")) is True):
            found.append(f"{name}: runAsNonRoot is not true")
        if (context.get("seccompProfile") or pod_context.get("seccompProfile")) is None:
            found.append(f"{name}: no seccompProfile")
        if context.get("procMount", "Default") != "Default":
            found.append(f"{name}: procMount {context['procMount']}")
        if any(port.get("hostPort") for port in container.get("ports", [])):
            found.append(f"{name}: hostPort")
    return found


def test_the_manager_pod_meets_pod_security_restricted():
    pod = next(
        o["spec"]["template"]["spec"]
        for o in yaml.safe_load_all(_default_output())
        if o and o["kind"] == "Deployment" and o["metadata"]["name"] == "gha-runner-manager"
    )
    assert _restricted_violations(pod) == []
    # A numeric non-root user, so the kubelet can check runAsNonRoot without
    # reading the image.
    assert isinstance(pod["securityContext"]["runAsUser"], int) and pod["securityContext"]["runAsUser"] > 0
    # The same check finds what a pod template without a securityContext lacks.
    bare = {"containers": [{"name": "c"}], "volumes": [{"name": "v", "hostPath": {"path": "/"}}]}
    assert _restricted_violations(bare) == [
        "volume v: ['hostPath']",
        "c: allowPrivilegeEscalation is not false",
        "c: capabilities do not drop ALL",
        "c: runAsNonRoot is not true",
        "c: no seccompProfile",
    ]


def test_the_runner_pod_meets_pod_security_restricted():
    pod = next(
        o["spec"]["template"]["spec"]
        for o in yaml.safe_load_all(_default_output())
        if o and o["kind"] == "Deployment" and o["metadata"]["name"] == "gha-runner"
    )
    assert _restricted_violations(pod) == []
    # A numeric non-root user, and an fsGroup that makes the install volume
    # (the PersistentVolumeClaim at /runner) writable to that user.
    context = pod["securityContext"]
    assert isinstance(context["runAsUser"], int) and context["runAsUser"] > 0
    assert context["fsGroup"] == context["runAsGroup"] == context["runAsUser"]
    claims = [v["name"] for v in pod["volumes"] if "persistentVolumeClaim" in v]
    assert [m["mountPath"] for m in pod["containers"][0]["volumeMounts"] if m["name"] in claims] == ["/runner"]


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
