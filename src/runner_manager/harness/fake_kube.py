"""Fake Kubernetes API for one Deployment in one namespace.

A handler, ``FakeKube.handle(Request) -> Response``: a scenario's client
calls it in-process, and ``start()``, shared with fake GitHub through
``httpserver.ServedFake``, serves it over HTTP for the tests of the wire,
where a test may read its state while a served request changes it, hence
its lock.

The reconcile loop sends one ``GET`` of the Deployment a poll and at most
one write: a merge patch of the Deployment that carries ``spec.replicas``,
``metadata.annotations`` or both. The fake answers exactly what the shipped
Role grants, ``get`` and ``patch`` of ``deployments`` in namespace ``ci``,
and nothing else. Every other request -- another namespace, a
cluster-scoped path, ``/scale``, pods, any other verb -- is answered 403,
as the API server would answer the manager's service account, and recorded
in ``cross_namespace_requests``, which fails the scenario: the
unprivileged-operation guarantee made testable. ``requests_by_method``
counts every request, always; ``request_paths`` keeps each path only when
``keep_request_paths`` is on.

Scaling behaves like a (simplified) Deployment controller: on 0->N the
fake creates Pending pods, and each turns Running on a timer set with the
given clock's ``call_at`` for ``pod_startup_delay`` later -- the one way a
pod starts, so the fake refuses a clock that is not a ``TimerClock`` when
it is built; on scale-down it terminates pods, newest first, and passes
every pod one write removes to the attached runner world in one call, so
their runners all go before any freed job is claimed again, as the oracle
removes them.

Each Deployment patch is judged as it is answered. A refused one (wrong
content type, or a body that is not exactly replicas and/or annotations)
is answered ``422`` and described in ``scale_patch_violations``; an
accepted replica write is reported through ``on_scale_write`` only.
"""

from __future__ import annotations

import re
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from ..clock import to_rfc3339
from ..transport import Request, Response
from .httpserver import ServedFake
from .virtual_clock import TimerClock

MERGE_PATCH = "application/merge-patch+json"
NAMESPACE = "ci"
DEPLOYMENT = "gha-runner"
# The one route the shipped Role grants: get and patch of a Deployment in NAMESPACE.
_DEPLOY_RE = re.compile(rf"^/apis/apps/v1/namespaces/{NAMESPACE}/deployments/([^/]+)$")


@dataclass
class FakePod:
    name: str
    phase: str  # Pending | Running


class FakeKube(ServedFake):
    def __init__(
        self,
        clock: TimerClock,
        pod_startup_delay: float = 0.0,
        initial_annotations: dict[str, str] | None = None,
    ):
        if not isinstance(clock, TimerClock):
            raise TypeError(f"FakeKube needs a TimerClock to start pods, not {type(clock).__name__}")
        self.clock = clock  # also the scheduler: pods start on its call_at timers
        self.pod_startup_delay = pod_startup_delay

        self._lock = threading.RLock()
        self.spec_replicas = 0
        self.annotations: dict[str, str] = dict(initial_annotations or {})
        self.pods: list[FakePod] = []
        self._pod_seq = 0  # pod names embed it, so a name is never reused
        self.fault_status: int | None = None

        self.cross_namespace_requests: list[str] = []  # every request outside the Role, answered 403
        self.scale_patch_violations: list[str] = []  # one line per refused Deployment patch
        self.requests_by_method: Counter[str] = Counter()  # always on; the budget tests read it
        self.request_paths: list[str] = []  # interned, kept only with keep_request_paths
        self.keep_request_paths = False

        self.on_pod_running: Callable[[str], None] | None = None
        self.on_pod_terminating: Callable[[list[str]], None] | None = None
        self.on_scale_write: Callable[[float, int], None] | None = None

    # -- lifecycle -----------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Answer one request: what a scenario's clients call in-process,
        and what ``start``'s server calls for each request off the wire."""
        return _handle(self, request)

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
        terminated: list[str] = []
        started: list[str] = []
        with self._lock:
            self.spec_replicas = replicas
            while len(self.pods) < replicas:
                self._pod_seq += 1
                pod = FakePod(name=f"{DEPLOYMENT}-{self._pod_seq}", phase="Pending")
                self.pods.append(pod)
                started.append(pod.name)
            while len(self.pods) > replicas:
                terminated.append(self.pods.pop().name)  # newest first
        for name in started:
            self.clock.call_at(now + self.pod_startup_delay, lambda name=name: self.pod_set_running(name))
        if terminated and self.on_pod_terminating is not None:
            self.on_pod_terminating(terminated)  # one call: the write removes them together

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

    deploy = _DEPLOY_RE.match(path)
    if deploy is None or request.method not in ("GET", "PATCH"):
        with kube._lock:
            kube.cross_namespace_requests.append(path)
        return Response.json(403, {"message": f"the Role grants only get and patch of deployments in {NAMESPACE}"})

    with kube._lock:
        fault = kube.fault_status
    if fault is not None:
        return Response.json(fault, {"message": f"injected fault {fault}"})
    if deploy.group(1) != DEPLOYMENT:
        return Response.json(404, {"message": "deployment not found"})
    if request.method == "GET":
        return Response.json(200, _deployment_body(kube))
    return _patch_deployment(kube, request)


def _patch_deployment(kube: FakeKube, request: Request) -> Response:
    """A merge patch of ``spec.replicas``, of ``metadata.annotations``, or of
    both, and nothing else. A refused patch is described in
    ``scale_patch_violations``."""
    content_type = request.headers.get("content-type") or ""
    content_ok = content_type.split(";")[0].strip() == MERGE_PATCH
    body = request.json()
    spec, metadata = body.get("spec"), body.get("metadata")
    shape_ok = (
        bool(body)
        and set(body) <= {"spec", "metadata"}
        and ("spec" not in body or _is_replicas(spec))
        and ("metadata" not in body or _is_annotations(metadata))
    )
    now = kube.clock.now()
    if not (content_ok and shape_ok):
        problems = [] if content_ok else [f"content type {content_type!r}"]
        if not shape_ok:
            problems.append(f"body {body!r}")
        with kube._lock:
            kube.scale_patch_violations.append(f"PATCH {request.path} at {to_rfc3339(now)}: {', '.join(problems)}")
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

