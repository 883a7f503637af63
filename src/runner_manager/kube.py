"""Namespaced Kubernetes API client.

Every request stays inside the configured namespace. Nothing here can
express a cluster-scoped request, which is the whole point of the design.
The client's token, namespace, CA and API address are resolved in one
place, :func:`resolve_credentials`, from the config and the environment.

The reconcile loop sends at most one ``GET`` of the Deployment a poll: that
object carries ``spec.replicas``, ``status.readyReplicas`` and the
annotations that hold the keepalive bookkeeping. It reads only when its
last answer is stale, about once per ``min_dwell`` while it keeps its count,
idle, busy or on hold, and before every scale to 0 (see
:mod:`runner_manager.reconciler`). It writes when its decision changes
something, with or without a read first, at most once a poll, through one
merge patch of the Deployment:
:meth:`KubeClient.write_scale` sends ``spec.replicas`` with whichever
annotations changed, :meth:`KubeClient.write_annotation` the annotations
alone. Nothing touches ``/scale``, so the Role needs ``get`` and ``patch``
on ``deployments`` and no more. The loop calls nothing else;
:meth:`KubeClient.read_annotations` and :meth:`KubeClient.list_runner_pods`
stay only because the benchmark's tracer looks them up by name. The Role
does not grant the pod list, so the API server, and fake Kubernetes with
it, answers that one ``403``. A ``409`` conflict, a ``429`` from API
Priority and Fairness and a ``5xx`` are transient: the loop skips that
poll's writes and tries again next poll. Requests go through one
:class:`~runner_manager.transport.HttpTransport` bound to the API address,
as paths below it, unless the caller hands the client another transport
(the harness does).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from urllib.parse import quote, urlencode

from .config import IN_CLUSTER, Config, read_secret_file
from .errors import (
    ConfigError,
    CredentialError,
    MissingDeploymentError,
    ProtocolError,
    TransientError,
)
from .transport import HttpTransport, Response

POD_PHASES = ("Pending", "Running", "Succeeded", "Failed", "Unknown")


@dataclass
class KubeCredentials:
    api_base: str
    bearer_token: str = field(repr=False)
    ca_bundle: str | None  # path to a CA file; None trusts the system store
    namespace: str

    def __post_init__(self):
        if not self.namespace:
            raise ConfigError("kubernetes namespace must not be empty")


@dataclass(frozen=True)
class DeploymentSnapshot:
    """The facts of one Deployment read. The API server leaves out fields
    that are zero, so a missing ``readyReplicas`` reads as 0."""

    spec_replicas: int
    ready_replicas: int
    annotations: dict[str, str]


@dataclass(frozen=True)
class PodInfo:
    name: str
    phase: str


def resolve_credentials(config: Config, environment: dict[str, str]) -> KubeCredentials:
    """The manager's Kubernetes credentials, from two independent choices.

    The token: when ``--kube-api`` is ``in-cluster`` or ``KUBE_SA_DIR`` is a
    directory, the service-account mount supplies it, the namespace when the
    config names none, and ``ca.crt`` when that file exists. Otherwise the
    token is ``KUBE_TOKEN`` and there is no CA.

    The API: ``in-cluster`` means
    ``https://$KUBERNETES_SERVICE_HOST:${KUBERNETES_SERVICE_PORT:-443}``. An
    explicit address is used as given, minus any trailing ``/``; an
    ``http://`` address drops the CA (the harness runs plain-HTTP fakes).
    """
    mount = config.kube_sa_dir
    namespace = config.kube_namespace
    if config.kube_api_base == IN_CLUSTER or os.path.isdir(mount):
        token = read_secret_file(os.path.join(mount, "token"), "service account token file")
        namespace = namespace or read_secret_file(os.path.join(mount, "namespace"), "service account namespace file")
        ca_path = os.path.join(mount, "ca.crt")
        ca_bundle = ca_path if os.path.exists(ca_path) else None
    else:
        token, ca_bundle = environment.get("KUBE_TOKEN", ""), None

    if config.kube_api_base == IN_CLUSTER:
        host = environment.get("KUBERNETES_SERVICE_HOST")
        if not host:
            raise ConfigError("missing KUBERNETES_SERVICE_HOST (not running in-cluster?)")
        api_base = f"https://{host}:{environment.get('KUBERNETES_SERVICE_PORT', '443')}"
    else:
        api_base = config.kube_api_base.rstrip("/")
        if api_base.startswith("http://"):
            ca_bundle = None

    return KubeCredentials(api_base, token, ca_bundle, namespace)


class KubeClient:
    """Deployment read and merge-patch for one Deployment, and a pod list
    the Role does not grant."""

    def __init__(
        self,
        creds: KubeCredentials,
        deployment: str,
        max_replicas: int,
        transport: HttpTransport | None = None,
    ):
        self._creds = creds
        self._deployment = deployment
        self._max_replicas = max_replicas
        self._transport = transport or HttpTransport(creds.api_base, ca_file=creds.ca_bundle)

    def close(self) -> None:
        self._transport.close()

    def _deployment_path(self) -> str:
        ns = quote(self._creds.namespace)
        name = quote(self._deployment)
        return f"/apis/apps/v1/namespaces/{ns}/deployments/{name}"

    def _request(self, method: str, path: str, body: bytes | None = None, content_type: str | None = None) -> dict:
        headers = {
            "Authorization": f"Bearer {self._creds.bearer_token}",
            "Accept": "application/json",
            "User-Agent": "runner-manager",
        }
        if content_type:
            headers["Content-Type"] = content_type
        response = self._transport.request(method, path, headers, body)
        self._raise_for_status(method, path, response)
        try:
            data = json.loads(response.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"{method} {path}: body is not valid JSON") from exc
        if not isinstance(data, dict):
            raise ProtocolError(f"{method} {path}: expected a JSON object")
        return data

    def _raise_for_status(self, method: str, path: str, response: Response) -> None:
        status = response.status
        if status < 400:
            return
        where = f"{method} {path} -> {status}"
        if status in (401, 403):
            raise CredentialError(where, status)
        if status == 404:
            raise MissingDeploymentError(f"{where} (deployment must pre-exist in the namespace)", status)
        if status in (409, 429) or status >= 500:
            # 429 is API Priority and Fairness shedding load: retry next poll.
            raise TransientError(where, status)
        raise ProtocolError(f"{where} (unexpected status)", status)

    def read_scale(self) -> DeploymentSnapshot:
        """One GET of the Deployment: spec and ready replicas, and annotations."""
        data = self._request("GET", self._deployment_path())
        spec = _object_field(data, "spec", "deployment")
        status = _object_field(data, "status", "deployment")
        metadata = _object_field(data, "metadata", "deployment")
        annotations = _object_field(metadata, "annotations", "metadata")
        return DeploymentSnapshot(
            spec_replicas=_replicas(spec, "replicas", data),
            ready_replicas=_replicas(status, "readyReplicas", data),
            annotations={str(k): str(v) for k, v in annotations.items()},
        )

    def write_scale(self, replicas: int, annotations: dict[str, str | None]) -> int:
        """Merge-patch ``spec.replicas`` and, when ``annotations`` is not
        empty, those annotations onto the Deployment in one request; a
        ``None`` value removes its key. Returns the spec.replicas the server
        now holds."""
        if not 0 <= replicas <= self._max_replicas:
            raise ValueError(f"replicas {replicas} outside [0, {self._max_replicas}]")
        patch: dict = {"spec": {"replicas": replicas}}
        if annotations:
            patch["metadata"] = {"annotations": annotations}
        data = self._merge_patch(patch)
        return _replicas(_object_field(data, "spec", "deployment"), "replicas", data)

    def read_annotations(self) -> dict[str, str]:
        """The Deployment's annotations, from the same GET as :meth:`read_scale`."""
        return self.read_scale().annotations

    def write_annotation(self, annotations: dict[str, str | None]) -> None:
        """Merge-patch the given annotations in one request; a ``None`` value
        removes its key."""
        self._merge_patch({"metadata": {"annotations": annotations}})

    def _merge_patch(self, patch: dict) -> dict:
        return self._request(
            "PATCH",
            self._deployment_path(),
            body=json.dumps(patch).encode(),
            content_type="application/merge-patch+json",
        )

    def list_runner_pods(self, label_selector: str) -> list[PodInfo]:
        ns = quote(self._creds.namespace)
        query = urlencode({"labelSelector": label_selector})
        data = self._request("GET", f"/api/v1/namespaces/{ns}/pods?{query}")
        items = data.get("items")
        if not isinstance(items, list):
            raise ProtocolError("pod list missing 'items' array")
        pods = []
        for item in items:
            if not isinstance(item, dict):
                raise ProtocolError(f"pod list item is not an object: {item!r}")
            meta = _object_field(item, "metadata", "pod")
            status = _object_field(item, "status", "pod")
            phase = str(status.get("phase", "Unknown"))
            if phase not in POD_PHASES:
                phase = "Unknown"
            pods.append(PodInfo(name=str(meta.get("name", "")), phase=phase))
        return pods


def _replicas(obj: dict, key: str, data: dict) -> int:
    """``obj[key]`` as a replica count; absent reads as 0."""
    try:
        return int(obj.get(key, 0))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"{key} malformed: {data!r}") from exc


def _object_field(data: dict, key: str, owner: str) -> dict:
    """``data[key]`` as a JSON object; absent or null reads as empty."""
    value = data.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ProtocolError(f"{owner}.{key} is not an object: {value!r}")
    return value
