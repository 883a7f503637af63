"""Scenario execution: the real manager against the fake world.

The driver owns virtual time. Each step it waits for the manager thread to
park in the clock, advances to the next interesting instant (scenario
event, pod/job timer, or the manager's own wake-up), applies environment
work first, then releases the manager. Identical scripts therefore produce
identical traces, bit for bit.
"""

from __future__ import annotations

import atexit
import functools
import heapq
import itertools
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass
from typing import Callable

from ..clock import to_rfc3339
from ..config import Config, Policy, RepoCoordinates
from ..reconciler import ANNOTATION_LAST_ACTIVE, ReconcileRecord
from ..service import run_service
from .fake_github import FakeGitHub
from .fake_kube import FakeKube
from .fake_runner import RunnerWorld
from .scenario import ScenarioEvent, ScenarioScript, policy_from_script
from .trace import Trace
from .virtual_clock import VirtualClock

HARNESS_GITHUB_TOKEN = "gh-harness-token-0001"
HARNESS_KUBE_TOKEN = "kube-harness-sa-token"
NAMESPACE = "ci"
DEPLOYMENT = "gha-runner"
OWNER = "biocore"
REPO = "unifrac"


class _EventQueue:
    def __init__(self):
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()

    def push(self, at: float, fn: Callable[[], None]) -> None:
        with self._lock:
            heapq.heappush(self._heap, (at, next(self._seq), fn))

    def next_time(self) -> float | None:
        with self._lock:
            return self._heap[0][0] if self._heap else None

    def pop_due(self, t: float) -> list[Callable[[], None]]:
        due = []
        with self._lock:
            while self._heap and self._heap[0][0] <= t:
                due.append(heapq.heappop(self._heap)[2])
        return due


class _ManagerHandle:
    """One manager incarnation running run_service on its own thread."""

    def __init__(self, config: Config, clock: VirtualClock, observer):
        self._config = config
        self._clock = clock
        self._observer = observer
        self.stop = threading.Event()
        self.exit_code: int | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._clock.register_actor()

        def _run():
            try:
                self.exit_code = run_service(
                    self._config,
                    clock=self._clock,
                    stop=self.stop,
                    observer=self._observer,
                    environment={},
                )
            except BaseException:  # pragma: no cover - surfaced via crashed()
                self.exit_code = -1
                raise
            finally:
                self._clock.actor_done()

        self._thread = threading.Thread(target=_run, name="manager", daemon=True)
        self._thread.start()

    def stop_and_join(self, timeout: float = 60.0) -> int | None:
        self.stop.set()
        self._clock.kick()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                raise RuntimeError("manager thread failed to stop")
        return self.exit_code

    def crashed(self) -> bool:
        return (
            self._thread is not None
            and not self._thread.is_alive()
            and not self.stop.is_set()
        )


@dataclass
class ScenarioResult:
    script: ScenarioScript
    policy: Policy
    trace: Trace
    decisions: list[tuple[float, int, str]]  # (tick seconds, target, reason)
    poll_counts: list[tuple[float, int | None, int | None]]  # (tick, queued, in_progress)
    writes: list[tuple[float, int]]  # (seconds, replicas)
    manager_exit_codes: list[int | None]
    scenario_failed: bool
    failure_reasons: list[str]
    cross_namespace_requests: list[str]
    github_header_violations: list[str]
    github_api_requests: int
    scale_patch_violations: list[str]
    final_annotations: dict[str, str]

    def replica_timeline(self) -> list[tuple[float, int]]:
        """Spec replicas over time: (since_seconds, value), starting at 0."""
        timeline = [(0.0, 0)]
        timeline.extend(self.writes)
        return timeline


@functools.cache
def _shared_sa_dir() -> str:
    """The fake service-account mount, made once a process and shared."""
    path = tempfile.mkdtemp(prefix=f"harness-sa-{NAMESPACE}-")
    with open(os.path.join(path, "token"), "w", encoding="utf-8") as fh:
        fh.write(HARNESS_KUBE_TOKEN)
    with open(os.path.join(path, "namespace"), "w", encoding="utf-8") as fh:
        fh.write(NAMESPACE)
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


def run_scenario(script: ScenarioScript, keep_request_log: bool = False) -> ScenarioResult:
    policy = policy_from_script(script)
    clock = VirtualClock()
    epoch = clock.now()
    horizon_abs = epoch + script.horizon
    trace = Trace(epoch)
    queue = _EventQueue()
    failure_reasons: list[str] = []

    initial_annotations = None
    if script.initial_last_active is not None:
        initial_annotations = {
            ANNOTATION_LAST_ACTIVE: to_rfc3339(epoch + script.initial_last_active)
        }

    github = FakeGitHub(
        owner=OWNER,
        repo=REPO,
        expected_token=HARNESS_GITHUB_TOKEN,
        clock=clock,
        keep_request_log=keep_request_log,
    ).start()
    kube = FakeKube(
        namespace=NAMESPACE,
        deployment=DEPLOYMENT,
        clock=clock,
        pod_startup_delay=script.pod_startup_delay,
        schedule=queue.push,
        initial_annotations=initial_annotations,
    ).start()

    world = RunnerWorld(
        github,
        labels=policy.runner_labels.as_list(),
        schedule=queue.push,
        clock=clock,
        on_event=lambda action, detail: trace.append(clock.now(), "fake_runner", action, detail),
    )
    kube.on_pod_running = world.pod_running
    kube.on_pod_terminating = world.pod_terminating

    writes: list[tuple[float, int]] = []

    def _on_scale_write(at: float, replicas: int) -> None:
        writes.append((at - epoch, replicas))
        trace.append(at, "fake_kube", "scale_write", {"replicas": replicas})

    kube.on_scale_write = _on_scale_write
    github.on_transition = lambda kind, job: trace.append(
        clock.now(), "fake_github", kind, {"job": job.job_id, "status": job.status}
    )

    config = Config(
        repo=RepoCoordinates(owner=OWNER, repo=REPO),
        policy=policy,
        kube_deployment=DEPLOYMENT,
        github_api_base=github.base_url,
        github_token=HARNESS_GITHUB_TOKEN,
        kube_namespace=None,  # resolved from the fake service-account mount
        kube_api_base=kube.base_url,
        kube_sa_dir=_shared_sa_dir(),
        status_addr=None,
    )

    decisions: list[tuple[float, int, str]] = []
    poll_counts: list[tuple[float, int | None, int | None]] = []
    exit_codes: list[int | None] = []

    def observer(record: ReconcileRecord) -> None:
        decisions.append((record.tick - epoch, record.desired, record.reason.value))
        poll_counts.append((record.tick - epoch, record.queued, record.in_progress))
        trace.append(record.tick, "manager", "decision", record.as_log_dict())

    manager = _ManagerHandle(config, clock, observer)
    respawn_handle: _ManagerHandle | None = None

    def _apply_event(event: ScenarioEvent) -> None:
        nonlocal manager, respawn_handle
        trace.append(clock.now(), "driver", event.kind, dict(event.payload))
        if event.kind == "enqueue_job":
            github.enqueue_job(
                labels=list(event.payload.get("labels", policy.runner_labels.as_list())),
                duration=float(event.payload.get("duration", 300.0)),
                ref=event.payload.get("ref"),
            )
            world.settle()
        elif event.kind == "complete_job":
            github.force_complete(event.payload["ref"])
            world.settle()
        elif event.kind == "github_fault":
            github.set_fault("status", float(event.payload.get("status", 500)))
        elif event.kind == "github_recover":
            github.clear_fault()
        elif event.kind in ("rate_limit", "secondary_rate_limit"):
            github.set_fault(event.kind, float(event.payload.get("retry_after", 60)))
        elif event.kind == "kube_fault":
            kube.set_fault(int(event.payload.get("status", 500)))
        elif event.kind == "kube_recover":
            kube.clear_fault()
        elif event.kind == "restart_manager":
            exit_codes.append(manager.stop_and_join())
            trace.append(clock.now(), "driver", "manager_stopped", {})
            downtime = float(event.payload.get("downtime", 0))
            # A newer restart supersedes any respawn still pending.
            manager = _ManagerHandle(config, clock, observer)
            respawn_handle = None
            if downtime > 0:
                queue.push(clock.now() + downtime, lambda h=manager: _mark_respawn(h))
            else:
                respawn_handle = manager

    def _mark_respawn(handle: _ManagerHandle) -> None:
        nonlocal respawn_handle
        if handle is manager:  # ignore stale respawns from superseded restarts
            respawn_handle = handle

    try:
        # Events at or before t=0 apply before the manager's first poll.
        pending_events = list(script.events)
        while pending_events and pending_events[0].at <= 0:
            _apply_event(pending_events.pop(0))
        for event in pending_events:
            queue.push(epoch + event.at, lambda e=event: _apply_event(e))

        manager.start()

        while True:
            clock.wait_quiescent()
            if manager.crashed():
                failure_reasons.append(
                    f"manager exited unexpectedly with code {manager.exit_code}"
                )
                break
            candidates = [t for t in (queue.next_time(), clock.next_deadline()) if t is not None]
            if not candidates:
                break
            t = min(candidates)
            if t >= horizon_abs:
                break
            clock.advance_to(t)
            while True:
                due = queue.pop_due(t)
                if not due:
                    break
                for fn in due:
                    fn()
            if respawn_handle is not None and respawn_handle is manager:
                respawn_handle = None
                trace.append(clock.now(), "driver", "manager_started", {})
                manager.start()
            clock.release_due()

        exit_codes.append(manager.stop_and_join())
    finally:
        github.close()
        kube.close()

    scale_patch_violations = [
        f"scale patch at {w.at - epoch:.1f}s: content_type_ok={w.content_type_ok} body_ok={w.body_shape_ok}"
        for w in kube.scale_write_log
        if not (w.content_type_ok and w.body_shape_ok)
    ]
    failed = bool(failure_reasons) or kube.scenario_failed
    if kube.scenario_failed:
        failure_reasons.append(f"cross-namespace requests: {kube.cross_namespace_requests}")

    return ScenarioResult(
        script=script,
        policy=policy,
        trace=trace,
        decisions=decisions,
        poll_counts=poll_counts,
        writes=writes,
        manager_exit_codes=exit_codes,
        scenario_failed=failed,
        failure_reasons=failure_reasons,
        cross_namespace_requests=list(kube.cross_namespace_requests),
        github_header_violations=list(github.header_violations),
        github_api_requests=github.api_request_count,
        scale_patch_violations=scale_patch_violations,
        final_annotations=dict(kube.annotations),
    )
