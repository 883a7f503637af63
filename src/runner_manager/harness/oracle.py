"""Brute-force decision oracle.

A flat, side-effect-free simulation that replays a scenario script with
perfect knowledge and applies the documented decision rules at every poll
tick. It shares no code with the reconciler or the clients -- only the
published contracts (decision priority, one attempt a poll and the
Retry-After gate, annotation keys and when they are written, tick
anchoring, and the polls between ticks) -- so agreement between the two
is meaningful evidence. Like the driver, it reads the script's events
through ``ScenarioEvent.arg``: the event defaults describe the input, not
the manager.

The runner world is modelled as the fakes model it: a pod holds the job its
runner works on, a removed pod's job goes back to the queue, and idle
running pods claim the oldest eligible queued jobs in one pass, in pod-name
order. Events at or before t=0 apply at t=0, before the first poll.

Each manager process is one incarnation: its tick anchor, rate-limit gate
and in-memory bookkeeping. A restart stops the running one and starts a
fresh one after the downtime; only the newest incarnation's polls run.
An incarnation polls at each tick ``anchor + k * poll_interval`` and, when
it comes strictly between a poll's decision and the next tick, at the
instant that decision changes with time alone: a keepalive's dwell end, or
the instant an idle decision's keepalive falls due. That poll takes no
tick, and its GitHub window, like a tick's, ends ``poll_interval`` after
it. Only a successful poll decides so, and it leaves the rate-limit gate
behind it, so such a poll never waits and never overruns the next tick.

An incarnation holds the Deployment's count once it has read it (its
first poll with Kubernetes up loads the durable state), else 0. Only the
manager writes that count, so the rule does not depend on the manager's
read schedule. A failed GitHub poll holds ``min(held, max_runners)``, so a
hold never writes the count.

A successful poll that counts outstanding matching jobs, one of them in
progress, never asks for fewer replicas than ``min(held, max_runners)``.
When that floor is at or above ``min(jobs, max_runners)`` the decision is
``busy`` at the floor; otherwise it is ``demand``. So no scale-down happens
while a counted job runs, and at ``max_runners`` any counted job in
progress makes the decision busy. The oracle counts every job; that the
manager may stop listing at the first job in progress there changes no
decision.

The ``last-active`` annotation is written when the runner stops: on a poll
that decides 0, or on one that sees no ready replica, it takes the exact
stamp. It is also written while it is unset. While a ready runner stays
wanted (a replica is ready and the target is 1 or more), a set stamp is
kept, however far the incarnation's own stamp has moved past it.

Returned decisions are keyed by poll-tick time, in seconds since the
scenario start; ticks where the manager was stopped mid-poll (restart,
horizon) yield no decision, matching the live manager's log. The final
annotations are what the Deployment holds at the horizon.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from ..clock import from_rfc3339, to_rfc3339
from ..config import Policy
from ..labels import LabelSet
from .scenario import ScenarioScript, policy_from_script
from .virtual_clock import SIM_EPOCH

# Documented contracts mirrored here on purpose (not imported from the
# implementation): decision reasons, keepalive lead, the job statuses that
# count as demand, the runner Deployment's name and its annotation keys.
HOLD, DEMAND, BUSY, KEEPALIVE, IDLE = "hold", "demand", "busy", "keepalive", "idle"
OUTSTANDING = ("queued", "in_progress")
DEPLOYMENT = "gha-runner"
ANNOTATION_LAST_ACTIVE = "runner-manager/last-active"
ANNOTATION_KEEPALIVE_STARTED = "runner-manager/keepalive-started"


@dataclass
class _Job:
    job_id: int
    created_at: float
    labels: LabelSet
    duration: float
    ref: str | None
    status: str = "queued"


@dataclass
class _Pod:
    name: str
    running: bool = False
    busy_job: _Job | None = None  # the in-progress job this pod's runner holds


@dataclass
class OracleResult:
    decisions: list[tuple[float, int, str]]
    writes: list[tuple[float, int]]
    annotations: dict[str, str]  # the Deployment's annotations at the horizon


def oracle_decisions(script: ScenarioScript, policy: Policy | None = None) -> OracleResult:
    sim = _OracleSim(script, policy or policy_from_script(script))
    sim.run()
    return OracleResult(
        decisions=sim.decisions,
        writes=sim.writes,
        annotations={
            key: to_rfc3339(value)
            for key, value in (
                (ANNOTATION_LAST_ACTIVE, sim.ann_last_active),
                (ANNOTATION_KEEPALIVE_STARTED, sim.ann_keepalive_started),
            )
            if value is not None
        },
    )


def _as_text_holds(stamp: float | None) -> float | None:
    """A stamp as an incarnation parses it back from its annotation text,
    which keeps whole microseconds."""
    return None if stamp is None else from_rfc3339(to_rfc3339(stamp))


_ENV, _MANAGER = 0, 1  # same-instant ordering: environment before manager


@dataclass
class _Incarnation:
    anchor: float
    next_tick_index: int = 1
    next_allowed: float = 0.0  # the rate-limit gate
    last_active: float | None = None
    keepalive_started: float | None = None
    durable_loaded: bool = False


class _OracleSim:
    def __init__(self, script: ScenarioScript, policy: Policy):
        self.script = script
        self.policy = policy
        self.epoch = SIM_EPOCH
        self.horizon = self.epoch + script.horizon

        self._heap: list = []
        self._seq = itertools.count()

        # environment
        self.jobs: list[_Job] = []
        self._job_seq = 0
        self.pods: list[_Pod] = []
        self._pod_seq = 0
        self.spec_replicas = 0
        self.github_fault: tuple[str, float] | None = None
        self.kube_fault: bool = False

        # durable store (Deployment annotations), as their text holds them
        self.ann_last_active: float | None = (
            _as_text_holds(self.epoch + script.initial_last_active) if script.initial_last_active is not None else None
        )
        self.ann_keepalive_started: float | None = None

        self.mgr: _Incarnation  # the newest manager incarnation; see _start

        # outputs, timed in seconds since the scenario start
        self.decisions: list[tuple[float, int, str]] = []
        self.writes: list[tuple[float, int]] = []

        self._current_time = self.epoch

    # -- event plumbing ------------------------------------------------------

    def _push(self, t: float, priority: int, fn) -> None:
        heapq.heappush(self._heap, (t, priority, next(self._seq), fn))

    def run(self) -> None:
        for event in self.script.events:
            self._push(max(self.epoch + event.at, self.epoch), _ENV, lambda e=event: self._apply_scenario_event(e))
        self._start(self.epoch)

        while self._heap:
            t, _, _, fn = heapq.heappop(self._heap)
            if t >= self.horizon:
                break
            self._current_time = t
            fn()

    # -- environment ---------------------------------------------------------

    def _apply_scenario_event(self, event) -> None:
        kind = event.kind
        if kind == "enqueue_job":
            self._job_seq += 1
            job = _Job(
                job_id=self._job_seq,
                created_at=self.epoch + event.at,
                labels=LabelSet(event.arg("labels")),
                duration=float(event.arg("duration")),
                ref=event.arg("ref"),
            )
            self.jobs.append(job)
            self._settle()
        elif kind == "complete_job":
            # Validation guarantees an earlier enqueue_job with this ref.
            job = next(j for j in self.jobs if j.ref == event.arg("ref"))
            if job.status != "completed":
                job.status = "completed"
                for pod in self.pods:
                    if pod.busy_job is job:
                        pod.busy_job = None
                self._settle()
        elif kind == "github_fault":
            self.github_fault = ("status", float(event.arg("status")))
        elif kind == "github_recover":
            self.github_fault = None
        elif kind in ("rate_limit", "secondary_rate_limit"):
            self.github_fault = ("rate_limit", float(event.arg("retry_after")))
        elif kind == "kube_fault":
            self.kube_fault = True
        elif kind == "kube_recover":
            self.kube_fault = False
        elif kind == "restart_manager":
            self._start(self.epoch + event.at + float(event.arg("downtime")))

    # -- pods and claims -------------------------------------------------------

    def _apply_scale(self, target: int, at: float) -> None:
        self.spec_replicas = target
        while len(self.pods) < target:
            self._pod_seq += 1
            pod = _Pod(name=f"{DEPLOYMENT}-{self._pod_seq}")
            self.pods.append(pod)
            self._push(
                at + self.script.pod_startup_delay,
                _ENV,
                lambda p=pod: self._pod_running(p),
            )
        while len(self.pods) > target:
            pod = self.pods.pop()
            if pod.busy_job is not None:
                # The runner dies mid-job: GitHub re-queues the work.
                pod.busy_job.status = "queued"
                pod.busy_job = None
        self._settle()

    def _pod_running(self, pod: _Pod) -> None:
        if pod not in self.pods or pod.running:
            return
        pod.running = True
        self._settle()

    def _settle(self) -> None:
        """Idle running pods, in name order, claim the oldest eligible queued
        jobs. One pass is enough: a claim never puts a job back in the queue."""
        idle = sorted((p for p in self.pods if p.running and p.busy_job is None), key=lambda p: p.name)
        queued = sorted(
            (j for j in self.jobs if j.status == "queued" and j.labels.issubset(self.policy.runner_labels)),
            key=lambda j: (j.created_at, j.job_id),
        )
        for pod, job in zip(idle, queued):
            job.status = "in_progress"
            pod.busy_job = job
            self._push(self._current_time + job.duration, _ENV, lambda p=pod, j=job: self._complete(p, j))

    def _complete(self, pod: _Pod, job: _Job) -> None:
        if pod.busy_job is not job:
            return  # stale: the job was cancelled, or the pod removed and the job re-queued
        job.status = "completed"
        pod.busy_job = None
        self._settle()

    # -- the manager model ---------------------------------------------------

    def _start(self, anchor: float) -> None:
        """Stop the running incarnation now; a fresh one first polls at
        ``anchor``, unless a later restart supersedes it before then."""
        m = self.mgr = _Incarnation(anchor=anchor)
        self._push(anchor, _MANAGER, lambda: self._attempt(anchor, anchor, m))

    def _attempt(self, tick: float, at: float, m: _Incarnation) -> None:
        """The poll's one GitHub attempt, at ``at``. A rate-limit gate at or
        past the window's end holds the poll unasked; one inside the window
        puts the attempt off until then. The attempt finishes the poll, or
        holds it on a fault; only a rate limit moves the gate."""
        if m is not self.mgr:
            return  # this incarnation was stopped
        if m.next_allowed > at:
            if m.next_allowed >= tick + self.policy.poll_interval:
                self._finalize(tick, at, m, poll_ok=False)
            else:
                self._push(m.next_allowed, _MANAGER, lambda a=m.next_allowed: self._attempt(tick, a, m))
            return
        fault = self.github_fault
        if fault is not None and fault[0] == "rate_limit":
            m.next_allowed = at + fault[1]
        self._finalize(tick, at, m, poll_ok=fault is None)

    def _finalize(self, tick: float, now: float, m: _Incarnation, poll_ok: bool) -> None:
        policy = self.policy
        kube_ok = not self.kube_fault
        if kube_ok and not m.durable_loaded:
            m.last_active = self.ann_last_active
            m.keepalive_started = self.ann_keepalive_started
            m.durable_loaded = True

        spec = self.spec_replicas
        running = sum(1 for p in self.pods if p.running)
        saw_running = running >= 1

        # The count the incarnation holds: the Deployment's, once it has read it.
        held = min(spec if m.durable_loaded else 0, policy.max_runners)
        if not poll_ok:
            target, reason = held, HOLD
        else:
            matching = [j for j in self.jobs if j.status in OUTSTANDING and j.labels.issubset(policy.runner_labels)]
            if m.durable_loaded and spec == 0:
                # No pod of the Deployment exists to run a job in progress.
                matching = [j for j in matching if j.status == "queued"]
            demand = min(len(matching), policy.max_runners)
            if held >= demand and any(j.status == "in_progress" for j in matching):
                target, reason = held, BUSY
            elif matching:
                target, reason = demand, DEMAND
            elif (
                m.keepalive_started is not None
                and now - m.keepalive_started < policy.min_dwell
            ):
                target, reason = 1, KEEPALIVE
            elif m.last_active is None or (
                now >= m.last_active + policy.force_interval - policy.min_dwell
            ):
                target, reason = 1, KEEPALIVE
            else:
                target, reason = 0, IDLE

        self.decisions.append((tick - self.epoch, target, reason))

        if kube_ok and target != spec:
            self._apply_scale(target, now)
            self.writes.append((now - self.epoch, target))

        if kube_ok and saw_running:
            m.last_active = now if m.last_active is None else max(m.last_active, now)
        if reason == KEEPALIVE:
            if m.keepalive_started is None:
                m.keepalive_started = now
        elif reason in (DEMAND, BUSY, IDLE):
            m.keepalive_started = None

        if kube_ok and m.durable_loaded:
            # While a ready runner stays wanted, a set last-active is kept;
            # any other poll writes the exact stamp.
            trailing = saw_running and target >= 1
            if not trailing or self.ann_last_active is None:
                self.ann_last_active = _as_text_holds(m.last_active)
            self.ann_keepalive_started = _as_text_holds(m.keepalive_started)

        at = m.anchor + m.next_tick_index * policy.poll_interval
        if reason == KEEPALIVE:
            changes = m.keepalive_started + policy.min_dwell
        elif reason == IDLE:
            changes = m.last_active + policy.force_interval - policy.min_dwell
        else:
            changes = None
        if changes is not None and now < changes < at:
            at = changes
        else:
            m.next_tick_index += 1
        self._push(at, _MANAGER, lambda t=at: self._attempt(t, t, m))
