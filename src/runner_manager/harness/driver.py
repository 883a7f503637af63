"""Scenario execution: the real manager against the fake world.

The driver owns virtual time. Each step it waits for the manager thread to
park in the clock, advances to the clock's next deadline (scenario event,
pod/job timer, or the manager's own wake-up), runs the due environment
work first, then releases the manager. The clock is the one scheduler: the
fakes are handed it and set every timer (a pod turning Running, a job
completing) with its ``call_at``. Identical scripts therefore produce
identical traces, bit for bit. The trace is the run's record: decisions,
poll counts and accepted scale writes are read back from it, each once, at
its first read. Each ``decision`` entry holds the manager's
:class:`ReconcileRecord` itself, rendered to the reconcile log line's dict
only when the trace is rendered (``to_ndjson``, the fingerprint). Fake
Kubernetes keeps only the refused Deployment patches, as
``scale_patch_violations``.
"""

from __future__ import annotations

import atexit
import functools
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass

from ..clock import to_rfc3339
from ..config import Config, Policy, RepoCoordinates
from ..reconciler import ANNOTATION_LAST_ACTIVE, ReconcileRecord
from ..service import run_service
from .fake_github import OWNER, REPO, FakeGitHub
from .fake_kube import DEPLOYMENT, NAMESPACE, FakeKube
from .fake_runner import RunnerWorld
from .scenario import ScenarioEvent, ScenarioScript, policy_from_script
from .trace import Trace
from .virtual_clock import VirtualClock

HARNESS_GITHUB_TOKEN = "gh-harness-token-0001"
HARNESS_KUBE_TOKEN = "kube-harness-sa-token"


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
    manager_exit_codes: list[int | None]
    failure_reasons: list[str]
    cross_namespace_requests: list[str]  # every Kubernetes request outside the Role
    github_header_violations: list[str]
    github_api_requests: int
    github_charged_requests: int  # the non-304 answers, which draw on the rate limit
    kube_requests: dict[str, int]  # by HTTP method
    scale_patch_violations: list[str]
    final_annotations: dict[str, str]

    # Each list is read from the finished trace once, at its first read, and
    # kept: a run that nobody reads holds only the trace.
    @functools.cached_property
    def decisions(self) -> list[tuple[float, int, str]]:  # (tick seconds, target, reason)
        return [(e.at, e.detail.desired, e.detail.reason.value) for e in self.trace.select("manager", "decision")]

    @functools.cached_property
    def poll_counts(self) -> list[tuple[float, int | None, int | None]]:  # (tick, queued, in_progress)
        return [(e.at, e.detail.queued, e.detail.in_progress) for e in self.trace.select("manager", "decision")]

    @functools.cached_property
    def writes(self) -> list[tuple[float, int]]:  # (seconds, replicas)
        return [(e.at, e.detail["replicas"]) for e in self.trace.select("fake_kube", "scale_write")]

    @property
    def scenario_failed(self) -> bool:
        return bool(self.failure_reasons)

    def replica_timeline(self) -> list[tuple[float, int]]:
        """Spec replicas over time: (since_seconds, value), starting at 0."""
        return [(0.0, 0), *self.writes]


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
    failure_reasons: list[str] = []

    initial_annotations = None
    if script.initial_last_active is not None:
        initial_annotations = {
            ANNOTATION_LAST_ACTIVE: to_rfc3339(epoch + script.initial_last_active)
        }

    github = FakeGitHub(expected_token=HARNESS_GITHUB_TOKEN, clock=clock, keep_request_log=keep_request_log).start()
    kube = FakeKube(
        clock=clock,
        pod_startup_delay=script.pod_startup_delay,
        initial_annotations=initial_annotations,
    ).start()

    world = RunnerWorld(
        github,
        labels=policy.runner_labels.as_list(),
        clock=clock,
        on_event=lambda action, detail: trace.append(clock.now(), "fake_runner", action, detail),
    )
    kube.on_pod_running = world.pod_running
    kube.on_pod_terminating = world.pod_terminating

    kube.on_scale_write = lambda at, replicas: trace.append(at, "fake_kube", "scale_write", {"replicas": replicas})
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

    exit_codes: list[int | None] = []

    def observer(record: ReconcileRecord) -> None:
        trace.append(record.tick, "manager", "decision", record)

    manager = _ManagerHandle(config, clock, observer)
    respawn_at: float | None = None  # when the stopped manager's successor starts

    def _apply_event(event: ScenarioEvent) -> None:
        nonlocal manager, respawn_at
        trace.append(clock.now(), "driver", event.kind, dict(event.payload))
        if event.kind == "enqueue_job":
            github.enqueue_job(
                labels=list(event.arg("labels")),
                duration=float(event.arg("duration")),
                ref=event.arg("ref"),
            )
            world.settle()
        elif event.kind == "complete_job":
            github.force_complete(event.arg("ref"))
            world.settle()
        elif event.kind == "github_fault":
            github.set_fault("status", float(event.arg("status")))
        elif event.kind == "github_recover":
            github.clear_fault()
        elif event.kind in ("rate_limit", "secondary_rate_limit"):
            github.set_fault(event.kind, float(event.arg("retry_after")))
        elif event.kind == "kube_fault":
            kube.set_fault(int(event.arg("status")))
        elif event.kind == "kube_recover":
            kube.clear_fault()
        elif event.kind == "restart_manager":
            exit_codes.append(manager.stop_and_join())
            trace.append(clock.now(), "driver", "manager_stopped", {})
            # A newer restart supersedes any respawn still pending.
            manager = _ManagerHandle(config, clock, observer)
            respawn_at = clock.now() + float(event.arg("downtime"))
            clock.call_at(respawn_at, lambda: None)  # so that the driver steps to respawn_at

    try:
        for event in script.events:
            clock.call_at(epoch + event.at, lambda e=event: _apply_event(e))
        clock.run_due()  # events at or before t=0 apply before the manager's first poll
        manager.start()

        while True:
            clock.wait_quiescent()
            if manager.crashed():
                failure_reasons.append(
                    f"manager exited unexpectedly with code {manager.exit_code}"
                )
                break
            t = clock.next_deadline()
            if t is None or t >= horizon_abs:
                break
            clock.advance_to(t)
            clock.run_due()
            if respawn_at is not None and respawn_at <= t:
                respawn_at = None
                trace.append(clock.now(), "driver", "manager_started", {})
                manager.start()
            clock.release_due()

        exit_codes.append(manager.stop_and_join())
    finally:
        github.close()
        kube.close()

    if kube.cross_namespace_requests:
        failure_reasons.append(f"Kubernetes requests outside the Role: {kube.cross_namespace_requests}")

    return ScenarioResult(
        script=script,
        policy=policy,
        trace=trace,
        manager_exit_codes=exit_codes,
        failure_reasons=failure_reasons,
        cross_namespace_requests=list(kube.cross_namespace_requests),
        github_header_violations=list(github.header_violations),
        github_api_requests=github.api_request_count,
        github_charged_requests=github.charged_request_count,
        kube_requests=dict(kube.requests_by_method),
        scale_patch_violations=list(kube.scale_patch_violations),
        final_annotations=dict(kube.annotations),
    )
