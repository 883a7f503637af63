"""Scenario execution: the real manager against the fake world.

Everything runs on the caller's thread, and no socket is opened. Each
manager incarnation is one call of ``run_service``, with fresh clients
whose transport hands every request to a fake's handler in-process. The
manager's own waits step virtual time (see ``virtual_clock``): each runs
the environment's timers due by its deadline -- scenario events, pod
start-ups, job completions -- before the manager resumes. A restart sets
the running manager's stop; the driver then steps through the downtime
and calls ``run_service`` again. The clock is the one scheduler, so
identical scripts produce identical traces, bit for bit. The trace is the
run's record: decisions, poll counts and accepted scale writes are read
back from it, each once, at its first read. Each ``decision`` entry holds
the manager's :class:`ReconcileRecord` itself, rendered to the reconcile
log line's dict only when the trace is rendered (``to_ndjson``, the
fingerprint). Fake Kubernetes keeps only the refused Deployment patches,
as ``scale_patch_violations``.
"""

from __future__ import annotations

import atexit
import faulthandler
import functools
import logging
import os
import shutil
import sys
import tempfile
import threading
from dataclasses import dataclass

from ..clock import to_rfc3339
from ..config import Config, Policy, RepoCoordinates
from ..github import GitHubClient
from ..kube import KubeClient, resolve_credentials
from ..reconciler import ANNOTATION_LAST_ACTIVE, ReconcileRecord
from ..service import run_service
from .fake_github import OWNER, REPO, FakeGitHub
from .fake_kube import DEPLOYMENT, NAMESPACE, FakeKube
from .fake_runner import RunnerWorld
from .httpserver import InProcessTransport
from .scenario import ScenarioEvent, ScenarioScript, policy_from_script
from .trace import Trace
from .virtual_clock import VirtualClock

logger = logging.getLogger(__name__)

HARNESS_GITHUB_TOKEN = "gh-harness-token-0001"
HARNESS_KUBE_TOKEN = "kube-harness-sa-token"
# Wall seconds an incarnation may take before the process is ended with
# every thread's traceback: a manager that never waits never returns.
INCARNATION_WALL_LIMIT = 600.0


class _ManagerHandle:
    """One manager incarnation. It starts at ``start_at`` unless a restart
    or the horizon sets ``stop`` first, and then runs until ``stop`` is set
    or it exits on its own."""

    def __init__(self, start_at: float):
        self.start_at = start_at
        self.stop = threading.Event()
        self.exit_code: int | None = None  # None: it never started

    def run(self, config: Config, clock: VirtualClock, observer, github: FakeGitHub, kube: FakeKube) -> str | None:
        """Run ``run_service`` on this thread with fresh clients, as a new
        process would; why the scenario fails, or None. Whatever would have
        ended a manager thread fails it, except ``KeyboardInterrupt``."""
        github_client = GitHubClient(
            config.github_api_base, config.github_token, transport=InProcessTransport(github.handle), clock=clock
        )
        kube_client = KubeClient(
            resolve_credentials(config, {}),  # from the fake service-account mount
            config.kube_deployment,
            config.policy.max_runners,
            transport=InProcessTransport(kube.handle),
        )
        # To the process's own stderr: a caller may have swapped sys.stderr
        # for an object with no file descriptor.
        faulthandler.dump_traceback_later(INCARNATION_WALL_LIMIT, exit=True, file=sys.__stderr__)
        try:
            self.exit_code = run_service(
                config, clock, self.stop, environment={}, observer=observer, github=github_client, kube=kube_client
            )
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # noqa: BLE001 - it would have ended the manager's thread
            logger.error("manager raised", exc_info=True)
            self.exit_code = -1
            return f"manager exited unexpectedly with code -1: {exc!r}"
        finally:
            faulthandler.cancel_dump_traceback_later()
        if not self.stop.is_set():
            return f"manager exited unexpectedly with code {self.exit_code}"
        return None

    def stop_and_join(self, timeout: float = 60.0) -> int | None:
        """Stop this incarnation and return its exit code. It ran on the
        caller's thread, so there is nothing to join or wait ``timeout``
        for; perfbench wraps the method by name."""
        self.stop.set()
        return self.exit_code


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
    clock.horizon = epoch + script.horizon
    trace = Trace(epoch)
    failure_reasons: list[str] = []

    initial_annotations = None
    if script.initial_last_active is not None:
        initial_annotations = {
            ANNOTATION_LAST_ACTIVE: to_rfc3339(epoch + script.initial_last_active)
        }

    github = FakeGitHub(expected_token=HARNESS_GITHUB_TOKEN, clock=clock, keep_request_log=keep_request_log)
    kube = FakeKube(
        clock=clock,
        pod_startup_delay=script.pod_startup_delay,
        initial_annotations=initial_annotations,
    )

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
        # No server answers at either address: the clients' transport hands
        # each request to the fake in-process.
        github_api_base="http://fake-github",
        github_token=HARNESS_GITHUB_TOKEN,
        kube_namespace=None,  # resolved from the fake service-account mount
        kube_api_base="http://fake-kube",
        kube_sa_dir=_shared_sa_dir(),
        status_addr=None,
    )

    exit_codes: list[int | None] = []

    def observer(record: ReconcileRecord) -> None:
        trace.append(record.tick, "manager", "decision", record)

    current = _ManagerHandle(epoch)  # the incarnation that runs next

    def _apply_event(event: ScenarioEvent) -> None:
        nonlocal current
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
            # Stops the running manager, or supersedes a respawn still
            # pending; either way the wait under way returns at once.
            current.stop.set()
            current = _ManagerHandle(clock.now() + float(event.arg("downtime")))

    for event in script.events:
        clock.call_at(epoch + event.at, lambda e=event: _apply_event(e))
    while True:
        manager = current
        # The downtime before it starts; at t=0, the events up to then.
        clock.wait_until(manager.start_at, manager.stop)
        if not manager.stop.is_set():
            if exit_codes:  # a successor's start
                trace.append(clock.now(), "driver", "manager_started", {})
            failure = manager.run(config, clock, observer, github, kube)
            if failure is not None:
                failure_reasons.append(failure)
        exit_codes.append(manager.stop_and_join())
        if current is manager:  # the horizon, or the manager exited on its own
            break
        trace.append(clock.now(), "driver", "manager_stopped", {})

    if kube.cross_namespace_requests:
        failure_reasons.append(f"Kubernetes requests outside the Role: {kube.cross_namespace_requests}")
    if github.header_violations:
        failure_reasons.append(f"GitHub requests with wrong headers: {github.header_violations}")
    if kube.scale_patch_violations:
        failure_reasons.append(f"refused Deployment patches: {kube.scale_patch_violations}")

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
