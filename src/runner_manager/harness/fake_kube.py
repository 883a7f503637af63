"""Fake Kubernetes API server for one Deployment in one namespace.

The reconcile loop sends one ``GET`` of the Deployment a poll and at most
one write: a merge patch of the Deployment that carries ``spec.replicas``,
``metadata.annotations`` or both. The fake serves those two, plus the pod
list that ``KubeClient.list_runner_pods`` still reads; that method, like
``read_annotations``, stays only because the benchmark's tracer looks it
up. Nothing uses ``/scale``, so every method on it answers ``405``. Every
request outside namespace ``ci`` is answered 403 and recorded in
``cross_namespace_requests``, which fails the scenario -- the
unprivileged-operation guarantee made testable. ``requests_by_method``
counts every request, always; ``request_paths`` keeps each path only when
``keep_request_paths`` is on.

Scaling behaves like a (simplified) Deployment controller: on 0->N the
fake creates Pending pods that turn Running after a configurable startup
delay; on scale-down it terminates pods, newest first, notifying the
attached runner world so an in-flight fake runner can be torn down.
"""

from __future__ import annotations

import re
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from ..clock import Clock, SystemClock
from .httpserver import FakeHttpServer, Request, Response

_SCALE_RE = re.compile(r"^/apis/apps/v1/namespaces/([^/]+)/deployments/([^/]+)/scale$")
_DEPLOY_RE = re.compile(r"^/apis/apps/v1/namespaces/([^/]+)/deployments/([^/]+)$")
_PODS_RE = re.compile(r"^/api/v1/namespaces/([^/]+)/pods$")

MERGE_PATCH = "application/merge-patch+json"
NAMESPACE = "ci"
DEPLOYMENT = "gha-runner"


@dataclass
class FakePod:
    name: str
    phase: str  # Pending | Running


@dataclass
class ScaleWrite:
    at: float
    replicas: int
    content_type_ok: bool
    body_shape_ok: bool


class FakeKube:
    def __init__(
        self,
        clock: Clock | None = None,
        pod_startup_delay: float = 0.0,
        schedule: Callable[[float, Callable[[], None]], None] | None = None,
        initial_annotations: dict[str, str] | None = None,
    ):
        self.clock = clock or SystemClock()
        self.pod_startup_delay = pod_startup_delay
        self._schedule = schedule

        self._lock = threading.RLock()
        self.spec_replicas = 0
        self.annotations: dict[str, str] = dict(initial_annotations or {})
        self.pods: list[FakePod] = []
        self._pod_seq = 0  # pod names embed it, so a name is never reused
        self.fault_status: int | None = None

        self.cross_namespace_requests: list[str] = []
        self.scale_write_log: list[ScaleWrite] = []
        self.requests_by_method: Counter[str] = Counter()  # always on; the budget tests read it
        self.request_paths: list[str] = []  # interned, kept only with keep_request_paths
        self.keep_request_paths = False

        self.on_pod_running: Callable[[str], None] | None = None
        self.on_pod_terminating: Callable[[str], None] | None = None
        self.on_scale_write: Callable[[float, int], None] | None = None

        self._server = FakeHttpServer(lambda request: _handle(self, request))

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "FakeKube":
        self._server.start()
        return self

    def close(self) -> None:
        self._server.close()

    @property
    def base_url(self) -> str:
        return self._server.base_url

    # -- state helpers ---------------------------------------------------------

    def running_count(self) -> int:
        with self._lock:
            return sum(1 for p in self.pods if p.phase == "Running")

    def set_fault(self, status: int) -> None:
        with self._lock:
            self.fault_status = status

    def clear_fault(self) -> None:
        with self._lock:
            self.fault_status = None

    def apply_scale(self, replicas: int) -> None:
        """The Deployment-controller half: converge pods toward spec.replicas."""
        now = self.clock.now()
        to_terminate: list[FakePod] = []
        became_running: list[str] = []
        with self._lock:
            self.spec_replicas = replicas
            while len(self.pods) < replicas:
                self._pod_seq += 1
                pod = FakePod(name=f"{DEPLOYMENT}-{self._pod_seq}", phase="Pending")
                self.pods.append(pod)
                if self._schedule is not None:
                    self._schedule(
                        now + self.pod_startup_delay,
                        lambda name=pod.name: self.pod_set_running(name),
                    )
                else:
                    pod.phase = "Running"
                    became_running.append(pod.name)
            while len(self.pods) > replicas:
                to_terminate.append(self.pods.pop())  # newest first
        for name in became_running:
            if self.on_pod_running is not None:
                self.on_pod_running(name)
        for pod in to_terminate:
            if self.on_pod_terminating is not None:
                self.on_pod_terminating(pod.name)

    def pod_set_running(self, name: str) -> None:
        with self._lock:
            pod = next((p for p in self.pods if p.name == name), None)
            if pod is None or pod.phase == "Running":
                return
            pod.phase = "Running"
        if self.on_pod_running is not None:
            self.on_pod_running(name)


_QUANTITY_RE = re.compile(r"^\d+(\.\d+)?(m|Ki|Mi|Gi|Ti|k|M|G|T)?$")


def validate_objects(objects: list[dict]) -> list[str]:
    """Shape-check parsed manifests the way the API server would.

    Returns a list of complaints; empty means everything would apply.
    """
    problems: list[str] = []
    for obj in objects:
        if not isinstance(obj, dict):
            problems.append(f"not a mapping: {obj!r}")
            continue
        kind = obj.get("kind")
        meta = obj.get("metadata") or {}
        if not kind or not isinstance(meta, dict) or not meta.get("name"):
            problems.append(f"object missing kind or metadata.name: {kind!r}")
            continue
        if kind == "Deployment":
            spec = obj.get("spec") or {}
            if not isinstance(spec.get("replicas"), int) or spec["replicas"] < 0:
                problems.append(f"{meta['name']}: spec.replicas must be a non-negative integer")
            selector = ((spec.get("selector") or {}).get("matchLabels")) or {}
            template_labels = ((spec.get("template") or {}).get("metadata") or {}).get("labels") or {}
            if not selector or any(template_labels.get(k) != v for k, v in selector.items()):
                problems.append(f"{meta['name']}: selector does not match template labels")
            for container in ((spec.get("template") or {}).get("spec") or {}).get("containers", []):
                for bucket in (container.get("resources") or {}).values():
                    for quantity in bucket.values():
                        if not _QUANTITY_RE.match(str(quantity)):
                            problems.append(f"{meta['name']}: bad resource quantity {quantity!r}")
    return problems


def _handle(kube: FakeKube, request: Request) -> Response:
    path = request.path
    with kube._lock:
        kube.requests_by_method[request.method] += 1
    if kube.keep_request_paths:
        kube.request_paths.append(sys.intern(path))

    scale = _SCALE_RE.match(path)
    deploy = _DEPLOY_RE.match(path)
    pods = _PODS_RE.match(path)
    match = scale or deploy or pods
    if match is None or match.group(1) != NAMESPACE:
        with kube._lock:
            kube.cross_namespace_requests.append(path)
        return Response.json(403, {"message": f"forbidden outside namespace {NAMESPACE}"})
    if scale:
        return Response.json(405, {"message": "the manager patches the Deployment, never /scale"})

    with kube._lock:
        fault = kube.fault_status
    if fault is not None:
        return Response.json(fault, {"message": f"injected fault {fault}"})
    if deploy and match.group(2) != DEPLOYMENT:
        return Response.json(404, {"message": "deployment not found"})

    if request.method == "GET":
        if deploy:
            return Response.json(200, _deployment_body(kube))
        if pods:
            selector = _parse_selector(request.query.get("labelSelector", ""))
            pod_labels = {"app": DEPLOYMENT}
            items = []
            if all(pod_labels.get(k) == v for k, v in selector.items()):
                with kube._lock:
                    items = [
                        {
                            "metadata": {"name": pod.name, "namespace": NAMESPACE, "labels": dict(pod_labels)},
                            "status": {"phase": pod.phase},
                        }
                        for pod in kube.pods
                    ]
            return Response.json(200, {"kind": "PodList", "items": items})

    if request.method == "PATCH":
        if deploy:
            return _patch_deployment(kube, request)
        return Response.json(405, {"message": "pods are managed by the deployment controller"})

    return Response.json(405, {"message": f"method {request.method} not supported"})


def _patch_deployment(kube: FakeKube, request: Request) -> Response:
    """A merge patch of ``spec.replicas``, of ``metadata.annotations``, or of
    both, and nothing else. A patch that carries ``spec`` is logged in
    ``scale_write_log`` with its verdict, refused or not."""
    content_ok = (request.headers.get("content-type") or "").split(";")[0].strip() == MERGE_PATCH
    body = request.json()
    spec, metadata = body.get("spec"), body.get("metadata")
    shape_ok = (
        bool(body)
        and set(body) <= {"spec", "metadata"}
        and ("spec" not in body or _is_replicas(spec))
        and ("metadata" not in body or _is_annotations(metadata))
    )
    if "spec" in body:
        now = kube.clock.now()
        with kube._lock:
            kube.scale_write_log.append(ScaleWrite(now, spec["replicas"] if shape_ok else -1, content_ok, shape_ok))
    if not (content_ok and shape_ok):
        return Response.json(
            422, {"message": "only merge-patch {spec:{replicas:N>=0}, metadata:{annotations}} is accepted"}
        )
    if "metadata" in body:
        with kube._lock:
            for key, value in metadata["annotations"].items():
                if value is None:
                    kube.annotations.pop(key, None)
                else:
                    kube.annotations[key] = str(value)
    if "spec" in body:
        kube.apply_scale(spec["replicas"])
        if kube.on_scale_write is not None:
            kube.on_scale_write(now, spec["replicas"])
    return Response.json(200, _deployment_body(kube))


def _is_replicas(spec) -> bool:
    """``spec`` is exactly ``{replicas: N}`` with N a non-negative integer."""
    return (
        isinstance(spec, dict)
        and set(spec) == {"replicas"}
        and type(spec["replicas"]) is int
        and spec["replicas"] >= 0
    )


def _is_annotations(metadata) -> bool:
    """``metadata`` is exactly ``{annotations: {...}}``."""
    return isinstance(metadata, dict) and set(metadata) == {"annotations"} and isinstance(metadata["annotations"], dict)


def _deployment_body(kube: FakeKube) -> dict:
    with kube._lock:
        return {
            "kind": "Deployment",
            "apiVersion": "apps/v1",
            "metadata": {"name": DEPLOYMENT, "namespace": NAMESPACE, "annotations": dict(kube.annotations)},
            "spec": {"replicas": kube.spec_replicas},
            "status": _deployment_status(kube),
        }


def _deployment_status(kube: FakeKube) -> dict:
    """Like the Deployment controller's: ``replicas`` counts every pod,
    Pending included, ``readyReplicas`` the Running ones, and a zero count
    is left out, as the API server leaves out zero fields."""
    counts = {"replicas": len(kube.pods), "readyReplicas": kube.running_count()}
    return {key: count for key, count in counts.items() if count}


def _parse_selector(selector: str) -> dict[str, str]:
    result: dict[str, str] = {}
    for clause in selector.split(","):
        clause = clause.strip()
        if not clause:
            continue
        key, _, value = clause.partition("=")
        result[key.strip()] = value.strip().lstrip("=")
    return result
