"""Namespaced Kubernetes API client.

Only three surfaces are touched, all inside the configured namespace: the
Deployment scale subresource, Deployment metadata annotations, and the pod
list. Nothing here can express a cluster-scoped request, which is the whole
point of the design.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from urllib.parse import quote, urlencode

from .errors import (
    ConfigError,
    CredentialError,
    MissingDeploymentError,
    ProtocolError,
    TransientError,
)
from .transport import HttpResponse, HttpTransport

POD_PHASES = ("Pending", "Running", "Succeeded", "Failed", "Unknown")


@dataclass
class KubeCredentials:
    api_base: str
    bearer_token: str = field(repr=False, default="")
    ca_bundle: str | None = None  # path to a CA file; None trusts the system store
    namespace: str = ""

    def __post_init__(self):
        if not self.namespace:
            raise ConfigError("kubernetes namespace must not be empty")


@dataclass(frozen=True)
class ScaleSnapshot:
    spec_replicas: int
    status_replicas: int


@dataclass(frozen=True)
class PodInfo:
    name: str
    phase: str


def load_incluster_credentials(
    mount_root: str,
    environment: dict[str, str],
    api_base_override: str | None = None,
    namespace_override: str | None = None,
) -> KubeCredentials:
    """Read the mounted service-account credentials.

    ``api_base_override`` keeps the mounted token but talks to an explicit
    endpoint (the harness runs plain-HTTP fakes this way).
    """
    token = _read_mount(mount_root, "token")
    namespace = namespace_override or _read_mount(mount_root, "namespace")

    ca_path = os.path.join(mount_root, "ca.crt")
    ca_bundle = ca_path if os.path.exists(ca_path) else None

    if api_base_override:
        api_base = api_base_override
        if api_base.startswith("http://"):
            ca_bundle = None
    else:
        host = environment.get("KUBERNETES_SERVICE_HOST")
        port = environment.get("KUBERNETES_SERVICE_PORT", "443")
        if not host:
            raise ConfigError("missing KUBERNETES_SERVICE_HOST (not running in-cluster?)")
        api_base = f"https://{host}:{port}"

    return KubeCredentials(
        api_base=api_base.rstrip("/"),
        bearer_token=token,
        ca_bundle=ca_bundle,
        namespace=namespace,
    )


def _read_mount(mount_root: str, name: str) -> str:
    path = os.path.join(mount_root, name)
    try:
        with open(path, encoding="utf-8") as fh:
            value = fh.read().strip()
    except OSError as exc:
        raise ConfigError(f"service account mount missing {name}: {path} ({exc})") from exc
    if not value:
        raise ConfigError(f"service account {name} file is empty: {path}")
    return value


class KubeClient:
    """Scale, annotation and pod operations for one Deployment."""

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
        self._transport = transport or HttpTransport(ca_file=creds.ca_bundle)

    @property
    def deployment(self) -> str:
        return self._deployment

    def close(self) -> None:
        self._transport.close()

    def _deployment_path(self, subresource: str = "") -> str:
        ns = quote(self._creds.namespace)
        name = quote(self._deployment)
        return f"/apis/apps/v1/namespaces/{ns}/deployments/{name}{subresource}"

    def _request(self, method: str, path: str, body: bytes | None = None, content_type: str | None = None) -> dict:
        headers = {
            "Authorization": f"Bearer {self._creds.bearer_token}",
            "Accept": "application/json",
            "User-Agent": "runner-manager",
        }
        if content_type:
            headers["Content-Type"] = content_type
        response = self._transport.request(method, f"{self._creds.api_base}{path}", headers, body)
        self._raise_for_status(method, path, response)
        try:
            data = json.loads(response.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"{method} {path}: body is not valid JSON") from exc
        if not isinstance(data, dict):
            raise ProtocolError(f"{method} {path}: expected a JSON object")
        return data

    def _raise_for_status(self, method: str, path: str, response: HttpResponse) -> None:
        status = response.status
        if status < 400:
            return
        where = f"{method} {path} -> {status}"
        if status in (401, 403):
            raise CredentialError(where, status)
        if status == 404:
            raise MissingDeploymentError(f"{where} (deployment must pre-exist in the namespace)", status)
        if status == 409 or status >= 500:
            raise TransientError(where, status)
        raise ProtocolError(f"{where} (unexpected status)", status)

    def read_scale(self) -> ScaleSnapshot:
        data = self._request("GET", self._deployment_path("/scale"))
        return self._parse_scale(data)

    def write_scale(self, replicas: int) -> ScaleSnapshot:
        """Merge-patch spec.replicas on the scale subresource; nothing else."""
        if not 0 <= replicas <= self._max_replicas:
            raise ValueError(f"replicas {replicas} outside [0, {self._max_replicas}]")
        body = json.dumps({"spec": {"replicas": replicas}}).encode()
        data = self._request(
            "PATCH",
            self._deployment_path("/scale"),
            body=body,
            content_type="application/merge-patch+json",
        )
        return self._parse_scale(data)

    def _parse_scale(self, data: dict) -> ScaleSnapshot:
        try:
            return ScaleSnapshot(
                spec_replicas=int((data.get("spec") or {}).get("replicas", 0)),
                status_replicas=int((data.get("status") or {}).get("replicas", 0)),
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"scale object malformed: {data!r}") from exc

    def read_annotations(self) -> dict[str, str]:
        data = self._request("GET", self._deployment_path())
        annotations = (data.get("metadata") or {}).get("annotations") or {}
        if not isinstance(annotations, dict):
            raise ProtocolError(f"metadata.annotations malformed: {annotations!r}")
        return {str(k): str(v) for k, v in annotations.items()}

    def write_annotation(self, annotations: dict[str, str | None]) -> None:
        """Merge-patch the given annotations in one request; a ``None`` value
        removes its key."""
        body = json.dumps({"metadata": {"annotations": annotations}}).encode()
        self._request(
            "PATCH",
            self._deployment_path(),
            body=body,
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
            meta = item.get("metadata") or {}
            status = item.get("status") or {}
            phase = str(status.get("phase", "Unknown"))
            if phase not in POD_PHASES:
                phase = "Unknown"
            pods.append(PodInfo(name=str(meta.get("name", "")), phase=phase))
        return pods
