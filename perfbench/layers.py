"""Timing the program's layers from outside, by wrapping their public calls.

Nothing under ``src/`` is edited. ``PollTimer`` is the only wrapper of the
untraced run: one timer pair around each ``ReconcileLoop.reconcile_once``.
``Tracer`` is installed only for traced runs; it records a span (name,
start, end, parent span, poll id) at each layer boundary and a few counts,
keeps them in memory, and removes every wrapper again on ``uninstall``.
"""

from __future__ import annotations

import functools
import http.client
import itertools
import threading
import time
from collections import Counter
from dataclasses import dataclass

from runner_manager import github, reconciler, transport
from runner_manager import kube as kube_mod
from runner_manager.harness import driver, fake_github, fake_kube, fake_runner, httpserver, virtual_clock

perf_counter = time.perf_counter
thread_time = time.thread_time


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class PollTimer:
    """One timer pair per poll around every reconcile_once.

    Each end reads the wall clock and the calling thread's CPU clock. The
    thread CPU clock leaves out time the hypervisor steals from the VM.
    """

    def __init__(self):
        self.polls: list[tuple[float, float, float]] = []  # (wall start, wall end, manager CPU s)
        self._patches = _Patches()

    def install(self) -> None:
        original = reconciler.ReconcileLoop.reconcile_once
        polls = self.polls

        @functools.wraps(original)
        def reconcile_once(loop, tick):
            start, cpu = perf_counter(), thread_time()
            try:
                return original(loop, tick)
            finally:
                polls.append((start, perf_counter(), thread_time() - cpu))

        self._patches.replace(reconciler.ReconcileLoop, "reconcile_once", reconcile_once)

    def uninstall(self) -> None:
        self._patches.undo()

    def take(self) -> list[tuple[float, float, float]]:
        taken = self.polls[:]
        self.polls.clear()
        return taken


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    poll: int

    @property
    def duration(self) -> float:
        return self.end - self.start


# Span name -> layer (module) name.
SPAN_LAYERS = {
    "transport.request": "transport",
    "github.list_outstanding_jobs": "github",
    "kube.read_annotations": "kube",
    "kube.read_scale": "kube",
    "kube.list_runner_pods": "kube",
    "kube.write_scale": "kube",
    "kube.write_annotation": "kube",
    "reconciler.reconcile_once": "reconciler",
    "reconciler.compute_desired": "reconciler",
    "service.run_service": "service",
    "virtual_clock.wait_until": "virtual_clock",
    "virtual_clock.wait_quiescent": "virtual_clock",
    "httpserver.parse": "httpserver",
    "httpserver.render": "httpserver",
    "fake_github.handle.runs": "fake_github",
    "fake_github.handle.jobs": "fake_github",
    "fake_github.handle.other": "fake_github",
    "fake_kube.handle": "fake_kube",
    "fake_runner.settle": "fake_runner",
}


class Tracer:
    """Spans and counts at every layer boundary named in ``SPAN_LAYERS``.

    ``counts`` holds what spans do not show: connects, backoff attempts,
    failures, driver steps and GitHub requests by kind.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.start_to_first_poll: list[float] = []
        self.wakes: list[float] = []
        self.last_stop: float | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._in_flight: int | None = None  # the transport request a server thread is answering
        self._poll = 0
        self._last_release = 0.0
        self._patches = _Patches()

    # -- span bookkeeping ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        # A server thread has no span of its own open: the transport request
        # it is answering caused it.
        parent = stack[-1] if stack else self._in_flight
        span_id = next(self._ids)
        poll = self._poll
        stack.append(span_id)
        if name == "transport.request":
            self._in_flight = span_id
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            if name == "transport.request":
                self._in_flight = None
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, poll))

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer._span(name, original, *args, **kwargs)

        self._patches.replace(owner, attr, wrapper)

    def _count_calls(self, owner, attr: str, counter: str) -> None:
        original = owner.__dict__[attr]
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self._patches.replace(owner, attr, wrapper)

    # -- wrappers --------------------------------------------------------------

    def install(self) -> None:
        tracer = self
        counts = self.counts

        # transport: the request span is the parent of the fake server's work.
        self._wrap(transport.HttpTransport, "request", "transport.request")
        self._count_calls(http.client.HTTPConnection, "connect", "transport.connects")

        # github: the poll, its page requests by kind, and the backoff wrapper.
        self._wrap(github.GitHubClient, "list_outstanding_jobs", "github.list_outstanding_jobs")
        github_request = github.GitHubClient._request

        @functools.wraps(github_request)
        def counted_github_request(this, method, path, body=None):
            counts["github.jobs_requests" if path.split("?")[0].endswith("/jobs") else "github.runs_requests"] += 1
            return github_request(this, method, path, body)

        self._patches.replace(github.GitHubClient, "_request", counted_github_request)
        backoff = reconciler.execute_with_backoff

        @functools.wraps(backoff)
        def counted_backoff(call, state, clock, window_end=None, interrupt=None):
            attempts = 0

            def counted_call():
                nonlocal attempts
                attempts += 1
                if attempts > 1:
                    counts["github.retries"] += 1
                return call()

            counts["github.poll_attempts"] += 1
            try:
                return backoff(counted_call, state, clock, window_end=window_end, interrupt=interrupt)
            except Exception:
                counts["github.poll_failures"] += 1
                raise

        self._patches.replace(reconciler, "execute_with_backoff", counted_backoff)

        # kube: each client call is a span; failures are calls that raised.
        for attr in ("read_annotations", "read_scale", "list_runner_pods", "write_scale", "write_annotation"):
            self._wrap_kube(attr)

        # reconciler: the poll itself opens a new poll id.
        reconcile_once = reconciler.ReconcileLoop.reconcile_once

        @functools.wraps(reconcile_once)
        def traced_reconcile_once(loop, tick):
            tracer._poll += 1
            pending = getattr(tracer._local, "service_start", None)
            if pending is not None:
                tracer.start_to_first_poll.append(perf_counter() - pending)
                tracer._local.service_start = None
            return tracer._span("reconciler.reconcile_once", reconcile_once, loop, tick)

        self._patches.replace(reconciler.ReconcileLoop, "reconcile_once", traced_reconcile_once)
        self._wrap(reconciler, "compute_desired", "reconciler.compute_desired")

        # service: one span per manager incarnation.
        run_service = driver.run_service

        @functools.wraps(run_service)
        def traced_run_service(*args, **kwargs):
            counts["service.starts"] += 1
            tracer._local.service_start = perf_counter()
            return tracer._span("service.run_service", run_service, *args, **kwargs)

        self._patches.replace(driver, "run_service", traced_run_service)

        # virtual_clock: driver steps, quiescence waits and actor wake-ups.
        clock_cls = virtual_clock.VirtualClock
        self._wrap(clock_cls, "wait_quiescent", "virtual_clock.wait_quiescent")
        self._count_calls(clock_cls, "advance_to", "virtual_clock.steps")
        release_due = clock_cls.release_due

        @functools.wraps(release_due)
        def traced_release_due(clock):
            tracer._last_release = perf_counter()
            return release_due(clock)

        self._patches.replace(clock_cls, "release_due", traced_release_due)
        wait_until = clock_cls.wait_until

        @functools.wraps(wait_until)
        def traced_wait_until(clock, deadline, interrupt=None):
            entered = perf_counter()
            try:
                return tracer._span("virtual_clock.wait_until", wait_until, clock, deadline, interrupt)
            finally:
                released = tracer._last_release
                if released > entered:
                    tracer.wakes.append(perf_counter() - released)

        self._patches.replace(clock_cls, "wait_until", traced_wait_until)

        # fake servers: request framing, response rendering and the handlers.
        self._wrap(httpserver.Request, "__init__", "httpserver.parse")
        self._wrap(httpserver.Response, "render", "httpserver.render")
        github_handle = fake_github._handle

        @functools.wraps(github_handle)
        def traced_github_handle(gh, req):
            return tracer._span(f"fake_github.handle.{_github_endpoint(req.path)}", github_handle, gh, req)

        self._patches.replace(fake_github, "_handle", traced_github_handle)
        self._wrap(fake_kube, "_handle", "fake_kube.handle")
        self._wrap(fake_runner.RunnerWorld, "settle", "fake_runner.settle")

        # driver: the scenario's manager stops, for the teardown figure.
        stop_and_join = driver._ManagerHandle.stop_and_join

        @functools.wraps(stop_and_join)
        def traced_stop_and_join(handle, timeout=60.0):
            tracer.last_stop = perf_counter()
            return stop_and_join(handle, timeout)

        self._patches.replace(driver._ManagerHandle, "stop_and_join", traced_stop_and_join)

    def _wrap_kube(self, attr: str) -> None:
        original = kube_mod.KubeClient.__dict__[attr]
        tracer = self
        name = f"kube.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            try:
                return tracer._span(name, original, *args, **kwargs)
            except Exception:
                tracer.counts["kube.failures"] += 1
                raise

        self._patches.replace(kube_mod.KubeClient, attr, wrapper)

    def uninstall(self) -> None:
        self._patches.undo()

    def reset(self) -> None:
        """Start a fresh scenario: clear spans and counts, keep the wrappers."""
        self.spans = []
        self.counts.clear()
        self.start_to_first_poll = []
        self.wakes = []
        self.last_stop = None
        self._poll = 0


def _github_endpoint(path: str) -> str:
    if path.startswith("/repos/") and path.endswith("/jobs"):
        return "jobs"
    if path.startswith("/repos/") and path.endswith("/actions/runs"):
        return "runs"
    return "other"


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.duration - covered
    return result
