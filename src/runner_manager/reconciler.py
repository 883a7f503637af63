"""Replica-count reconciliation.

One iteration combines three inputs -- the outstanding matching jobs (None
when the GitHub poll failed, at least ``max_runners`` when saturated, up to
the first counted job in progress on a fresh poll at the cap), the
keepalive deadline, and the Deployment (None when the loop's answer is
fresh and the read is skipped, or when the read failed, and then nothing is
written) -- into a target replica count, and
keeps the keepalive bookkeeping durable in Deployment annotations so a
manager restart cannot silently let the runner's registration token age
out. A poll sends at most one write: one merge patch of the Deployment that
carries the new ``spec.replicas`` and whichever annotations changed, or the
annotations alone when the count stays.

A poll reads the Deployment only when the loop's answer to that read, its
:class:`DeploymentView`, is stale, and writes when its decision changes
something, with or without a read first. The answer is fresh when the last
Kubernetes call succeeded, the last read is under ``min_dwell`` old, and:
at 0 replicas, ``last-active`` would not change; at 1 or more, the target
stays at 1 or more and ``keepalive_due_at(last_active) > read_at +
min_dwell + 2 * poll_interval``. So a scale to 0 always reads first, for
its exact ``last-active``. The bound: a decision uses the stamp from before
its poll's read, which skipped reads may leave behind a runner that is up.
The tick in ``[read_at + min_dwell, read_at + min_dwell + poll_interval)``
reads, if no poll before it has, and decides within its GitHub window, one
``poll_interval`` long; so no decision up to that read can see the
keepalive due on a stamp that a read would have moved. A keepalive whose
runner no read has seen ready, and a runner that is up when
``force_interval <= 2 * min_dwell + 2 * poll_interval``, read every poll.

At 0 and at the cap (``max_runners`` or more) a poll judges the rule
before GitHub, at the cap for a target of 1 or more. At 0 an answer fresh
then is fresh for the whole poll, which reads nothing and lists no
in-progress run: no pod of the Deployment exists to be busy. At the cap a
fresh poll stops listing at the first counted job in progress, which
makes its decision busy at the count held, and a busy decision keeps the
poll fresh for its whole length; one that meets no such job has listed
in full and asks the rule again, as at 1 or more. A stale answer is read
after GitHub, and its poll lists in full, the in-progress runs included,
before it decides. So a count that a read finds meets the full listing:
a count of 1 or more is never cut under a runner of its own at work, a
hand scale below the cap is undone while jobs wait, and a queued job in a
run that another runner's job has put in progress is seen within
``min_dwell``. A GitHub poll that outlasts the answer's freshness defers
the read to the next tick, which is stale from its start, so the bound
above holds.

A fresh poll writes against the count the loop holds and sends nothing when
nothing changes; its record reports that count and when it was last read or
written, or null when its write failed. A manager that keeps its count,
idle, busy or on hold, thus reads about once per ``min_dwell``, and a hand
scale, a revoked token or a deleted Deployment is seen at most
``min_dwell`` plus one poll late, during a GitHub outage too.

Decision priority (also implemented, independently, by the harness oracle):

1. GitHub poll failed        -> min(held, max_runners)          (hold)
2. outstanding matching jobs -> min(count, max_runners)         (demand)
   one of them in progress   -> min(held, max_runners) when it   (busy)
                                is at least the demand target
3. keepalive dwell running   -> 1                               (keepalive)
4. keepalive due             -> 1                               (keepalive)
5. otherwise                 -> 0                               (idle)

"Held" is ``spec.replicas`` as the loop last read or wrote it, 0 before
its first read, so a hold never writes ``spec.replicas``. A job in progress
counts only while held is not a known 0 (:func:`counted_jobs`): at 0 no
pod of the Deployment exists, so such a job runs on another runner.
The ReplicaSet, not the manager, picks which pod a cut of
``spec.replicas`` deletes, so any cut while a job runs can kill that job's
runner: while a counted job is in progress the count never falls. The
decision is ``busy`` when that floor is at or above the demand target, so
the count held already covers demand; otherwise it is ``demand``. At
``max_runners`` one counted job in progress thus settles the decision,
whatever else is outstanding. The floor never scales up, and at
``max_runners`` 1 it never binds. Its cost is idle runners: one long job
holds every pod up until it ends.

A poll runs at every tick of a fixed grid, ``start + k * poll_interval``,
and also at the instant the last decision changes with time alone
(:func:`decision_changes_at`) when that falls strictly between the poll
and the next tick: the end of a keepalive dwell, or the instant an idle
manager's keepalive falls due. Such a poll takes no tick from the grid, and
its GitHub window is ``poll_interval`` long like a tick's. So a keepalive
starts when it falls due and ends ``min_dwell`` later, not at the next
tick after either.

The ``last-active`` annotation is written when the runner stops: exact
from the poll that scales to zero or first sees no ready replica. It is
also written while it is unset. While a ready runner stays wanted nothing
else writes it, so it trails the in-memory stamp by the busy stretch. A
restarted manager reads a trailing stamp only if the runner was up when the
last one stopped. If the runner is still ready, the first poll moves the
in-memory stamp to now; if it died unseen, the keepalive falls due early by
up to the whole busy stretch, never late, so the credential is never older
than with an exact stamp.
"""

from __future__ import annotations

import enum
import logging
import threading
from dataclasses import dataclass, replace
from typing import Callable, TypeVar

from .clock import Clock, from_rfc3339, to_rfc3339
from .config import Policy
from .errors import ApiError, CredentialError, MissingDeploymentError
from .github import BackoffState, GitHubClient, JobRecord, execute_with_backoff
from .kube import DeploymentSnapshot, KubeClient

logger = logging.getLogger(__name__)

ANNOTATION_LAST_ACTIVE = "runner-manager/last-active"
ANNOTATION_KEEPALIVE_STARTED = "runner-manager/keepalive-started"

# Consecutive polls with credential failures tolerated before giving up.
CREDENTIAL_EXIT_THRESHOLD = 3

T = TypeVar("T")


class Reason(str, enum.Enum):
    DEMAND = "demand"
    BUSY = "busy"
    KEEPALIVE = "keepalive"
    IDLE = "idle"
    HOLD = "hold"


@dataclass(frozen=True)
class Decision:
    target_replicas: int
    reason: Reason


@dataclass(frozen=True)
class ManagerState:
    last_active: float | None = None
    keepalive_started_at: float | None = None


@dataclass(frozen=True)
class DeploymentView:
    """What the loop knows of the Deployment, replaced on each read or write:
    ``spec.replicas`` as last read or written and when, when it was last
    read, and whether that read saw a ready replica (until a write of 0)."""

    replicas: int
    known_at: float
    read_at: float
    ready: bool


@dataclass(slots=True)
class ReconcileRecord:
    """One loop iteration's facts: the log line, the trace entry and /status.
    The harness trace keeps each one as it is and renders it on demand."""

    tick: float
    decided_at: float
    queued: int | None
    in_progress: int | None
    observed_replicas: int | None  # spec.replicas as last read or written; None: a request failed, nothing read
    observed_at: float | None  # when observed_replicas was read or written; None with it
    desired: int
    reason: Reason
    wrote_scale: bool
    consecutive_github_errors: int
    consecutive_kube_errors: int
    last_active: float | None  # the in-memory stamp; None while unknown
    keepalive_next_due: float | None
    github_rate_limit_remaining: int | None

    def as_log_dict(self) -> dict:
        return {
            "time": to_rfc3339(self.decided_at),
            "queued": self.queued,
            "in_progress": self.in_progress,
            "observed": self.observed_replicas,
            "desired": self.desired,
            "reason": self.reason.value,
            "wrote_scale": self.wrote_scale,
        }

    def as_status_dict(self) -> dict:
        return {
            "last_poll_time": to_rfc3339(self.tick),
            "last_decision": {"target_replicas": self.desired, "reason": self.reason.value},
            "observed_replicas": self.observed_replicas,
            "observed_at": _format_ts(self.observed_at),
            "consecutive_github_errors": self.consecutive_github_errors,
            "consecutive_kube_errors": self.consecutive_kube_errors,
            "last_active": _format_ts(self.last_active),
            "keepalive_next_due": _format_ts(self.keepalive_next_due),
            "github_rate_limit_remaining": self.github_rate_limit_remaining,
        }


@dataclass
class _Streaks:
    """One API's failure streaks, both counted in polls, not calls: polls in
    a row with a failed call, and polls in a row with a 401/403. An API fails
    at most once a poll: the Deployment is not written after a failed read."""

    api: str
    errors: int = 0
    credential: int = 0
    failure: ApiError | None = None

    def step(self, call: Callable[[], T]) -> T | None:
        """Run one API call; a failure becomes this poll's and yields None.
        A 401/403 escapes at once when this poll would bring the credential
        streak to the exit threshold, so the terminal poll sends no further
        request. A missing Deployment escapes at once."""
        try:
            return call()
        except MissingDeploymentError:
            raise
        except CredentialError as exc:
            streak = self.credential + 1
            if streak >= CREDENTIAL_EXIT_THRESHOLD:
                raise
            self.failure = exc
            logger.warning("%s credential failure (%d): %s", self.api, streak, exc)
        except ApiError as exc:
            self.failure = exc
            logger.debug("%s call failed: %s", self.api, exc)
        return None

    def end_poll(self) -> None:
        failure, self.failure = self.failure, None
        self.errors = self.errors + 1 if failure else 0
        self.credential = self.credential + 1 if isinstance(failure, CredentialError) else 0


def keepalive_due_at(last_active: float | None, policy: Policy) -> float | None:
    """When a forced provisioning must start: ``min_dwell`` early, so the
    dwell completes within ``force_interval`` of the last confirmed activity
    and starts repeat every ``force_interval``. None while ``last_active`` is
    unknown (fresh install), because then it is due already."""
    if last_active is None:
        return None
    return last_active + policy.force_interval - policy.min_dwell


def keepalive_due(last_active: float | None, now: float, policy: Policy) -> bool:
    """True when a forced provisioning must start; see :func:`keepalive_due_at`."""
    due_at = keepalive_due_at(last_active, policy)
    return due_at is None or now >= due_at


def decision_changes_at(reason: Reason, state: ManagerState, policy: Policy) -> float | None:
    """The next instant at which the decision just made, with ``state``
    advanced past it, changes with time alone: after a keepalive, the end
    of its dwell (already past when the dwell is over and the keepalive goes
    on because no poll has seen the runner ready); after an idle decision,
    when the keepalive falls due. None after demand, busy and hold, which
    only a poll's inputs change. The loop also polls at this instant when
    it falls strictly between now and the next tick."""
    if reason is Reason.KEEPALIVE:
        return state.keepalive_started_at + policy.min_dwell
    if reason is Reason.IDLE:
        return keepalive_due_at(state.last_active, policy)
    return None


def compute_desired(
    jobs: list[JobRecord] | None,
    known_replicas: int | None,
    state: ManagerState,
    policy: Policy,
    now: float,
) -> Decision:
    """Pure decision function; see the priority table in the module docstring.

    ``jobs`` holds, in no set order, every outstanding matching job when
    there are fewer than ``max_runners``, and at least ``max_runners`` of
    them when saturated -- all that the demand rule needs -- or, from a
    fresh poll at the cap, those read up to the first counted job in
    progress, which makes the decision busy whatever else waits. The jobs of
    in-progress runs are read first, and queued runs are listed only when
    those hold fewer than ``max_runners``, so a poll saturated by
    in-progress runs counts no job of a queued run. A run that starts
    between the two listing reads is in neither, and the next poll counts
    it. ``known_replicas`` is ``spec.replicas`` as the loop last read or
    wrote it, None until its first read succeeds; it need not come from
    this poll's read. None for ``jobs`` means the GitHub poll failed, so
    the decision holds ``min(known_replicas, max_runners)``. At a known 0
    only queued jobs count (:func:`counted_jobs`). While one of ``jobs`` is
    in progress the target stays at least that (busy when it covers the
    demand target), so no scale-down can remove a busy runner's pod.
    """
    held = min(known_replicas or 0, policy.max_runners)
    if jobs is None:
        return Decision(held, Reason.HOLD)
    jobs = counted_jobs(jobs, known_replicas)

    if jobs:
        demand = min(len(jobs), policy.max_runners)
        if held >= demand and any(job.status == "in_progress" for job in jobs):
            return Decision(held, Reason.BUSY)
        return Decision(demand, Reason.DEMAND)

    if state.keepalive_started_at is not None and now - state.keepalive_started_at < policy.min_dwell:
        return Decision(1, Reason.KEEPALIVE)

    if keepalive_due(state.last_active, now, policy):
        return Decision(1, Reason.KEEPALIVE)

    return Decision(0, Reason.IDLE)


def counted_jobs(jobs: list[JobRecord] | None, known_replicas: int | None) -> list[JobRecord] | None:
    """The outstanding jobs that demand counts: all of them, but at a known
    0 replicas only the queued ones, since no pod of the Deployment exists
    to run the others."""
    if jobs is None or known_replicas != 0:
        return jobs
    return [job for job in jobs if job.status == "queued"]


def update_state(
    state: ManagerState,
    decision: Decision,
    deployment: DeploymentSnapshot | None,
    now: float,
) -> ManagerState:
    """Advance the keepalive bookkeeping after a decision. The poll's one
    write then carries it; whether that write succeeds does not change it.

    A live runner refreshes its own token, so ``last_active`` moves to ``now``
    whenever the Deployment reports a ready replica -- and only then; a
    scale-up whose pod never became ready (still Pending, or crash-looping)
    must not count. ``last_active`` never moves backward.
    """
    last_active = state.last_active
    if deployment is not None and deployment.ready_replicas >= 1:
        last_active = now if last_active is None else max(last_active, now)

    keepalive_started = state.keepalive_started_at
    if decision.reason is Reason.KEEPALIVE:
        if keepalive_started is None:
            keepalive_started = now
    elif decision.reason in (Reason.DEMAND, Reason.BUSY, Reason.IDLE):
        keepalive_started = None
    # HOLD freezes keepalive bookkeeping: an API outage neither starts nor
    # cancels a dwell.

    return replace(state, last_active=last_active, keepalive_started_at=keepalive_started)


class ReconcileLoop:
    """Owns the manager state and executes one reconcile per clock tick."""

    def __init__(
        self,
        github: GitHubClient,
        kube: KubeClient,
        policy: Policy,
        clock: Clock,
        repo,
        stop: threading.Event,
    ):
        self.github = github
        self.kube = kube
        self.policy = policy
        self.clock = clock
        self.repo = repo
        self.stop = stop

        self.state = ManagerState()
        self.backoff = BackoffState()
        self.github_streaks = _Streaks("github")
        self.kube_streaks = _Streaks("kubernetes")
        # The state the Deployment annotations hold; None until they are read.
        self._persisted: ManagerState | None = None
        # None until this incarnation first reads the Deployment.
        self.view: DeploymentView | None = None

    # -- durable state ----------------------------------------------------

    def _write(self, replicas: int | None, trailing: bool) -> bool:
        """Send the poll's one write, if it has one: a merge patch of the
        Deployment with ``spec.replicas`` (unless ``replicas`` is None) and
        whichever annotations changed. True when it wrote ``spec.replicas``.

        On a ``trailing`` poll -- a replica is ready and stays wanted --
        ``last-active`` is sent only while it is unset, so a busy runner's
        stamp is not refreshed while it works. That is safe: the poll that
        stops wanting the runner, or first misses it, sends the exact stamp
        (the module docstring has the restart case).
        ``_persisted`` keeps the ``last-active`` actually sent; a refused
        write leaves it as it was, so the next poll sends the same again.
        """
        last_active, persisted = self.state.last_active, self._persisted.last_active
        if trailing and persisted is not None:
            last_active = persisted
        patch = {}
        if last_active != persisted:
            patch[ANNOTATION_LAST_ACTIVE] = _format_ts(last_active)
        if self.state.keepalive_started_at != self._persisted.keepalive_started_at:
            patch[ANNOTATION_KEEPALIVE_STARTED] = _format_ts(self.state.keepalive_started_at)
        if replicas is not None:
            self.kube.write_scale(replicas, patch)
        elif patch:
            self.kube.write_annotation(patch)
        self._persisted = replace(self.state, last_active=last_active)
        return replicas is not None

    # -- one iteration -----------------------------------------------------

    def reconcile_once(self, tick: float) -> ReconcileRecord | None:
        """Poll, decide, then write the count and the bookkeeping in one
        request. Returns None when stopped mid-poll.

        Transient failures never escape: GitHub trouble degrades to a hold
        decision, Kubernetes trouble skips this iteration's writes. Credential
        failures escape once persistent; a missing Deployment immediately.
        """
        window_end = tick + self.policy.poll_interval

        # At 0 and at the cap freshness is judged before GitHub. At 0 a fresh
        # poll lists no in-progress run and stays fresh; at the cap it stops
        # at the first counted job in progress and stays fresh if busy.
        known = self._known_replicas()
        at_zero, at_cap = known == 0, (known or 0) >= self.policy.max_runners
        early = (at_zero or at_cap) and self._holds_answer(known, self.clock.now())
        jobs = self.github_streaks.step(
            lambda: self._poll_github(window_end, not (early and at_zero), early and at_cap)
        )
        self.github_streaks.end_poll()

        if self.stop.is_set():
            return None

        now = self.clock.now()
        decision = compute_desired(jobs, known, self.state, self.policy, now)
        settled = at_zero or decision.reason is Reason.BUSY
        fresh = early and settled or self._holds_answer(decision.target_replicas, now)
        deployment = None
        if not fresh:
            deployment = self.kube_streaks.step(self._observe_kube)
            now = self.clock.now()
            decision = compute_desired(jobs, self._known_replicas(), self.state, self.policy, now)

        self.state = update_state(self.state, decision, deployment, now)
        counted = counted_jobs(jobs, self._known_replicas())  # as the decision counted them

        view = self.view
        observed = observed_at = None
        wrote = False
        if fresh or deployment is not None:
            observed, observed_at = view.replicas, view.known_at
            target = decision.target_replicas
            replicas = target if target != observed and not self.stop.is_set() else None
            trailing = view.ready and target >= 1
            wrote = bool(self.kube_streaks.step(lambda: self._write(replicas, trailing)))
            if wrote:
                self.view = replace(view, replicas=target, known_at=self.clock.now(), ready=trailing)
            elif fresh and self.kube_streaks.failure:
                observed = observed_at = None  # nothing was read this poll

        # Counting polls, not calls, a readable but unwritable Deployment
        # still reaches the exit threshold.
        self.kube_streaks.end_poll()

        return ReconcileRecord(
            tick=tick,
            decided_at=now,
            queued=_count(counted, "queued"),
            in_progress=_count(counted, "in_progress"),
            observed_replicas=observed,
            observed_at=observed_at,
            desired=decision.target_replicas,
            reason=decision.reason,
            wrote_scale=wrote,
            consecutive_github_errors=self.github_streaks.errors,
            consecutive_kube_errors=self.kube_streaks.errors,
            last_active=self.state.last_active,
            keepalive_next_due=keepalive_due_at(self.state.last_active, self.policy),
            github_rate_limit_remaining=self.github.rate_limit_remaining,
        )

    def _poll_github(self, window_end: float, in_progress: bool, until_busy: bool) -> list[JobRecord]:
        return execute_with_backoff(
            lambda: self.github.list_outstanding_jobs(
                self.repo, self.policy.runner_labels, self.policy.max_runners, in_progress, until_busy
            ),
            self.backoff,
            self.clock,
            window_end=window_end,
            interrupt=self.stop,
        )

    def _known_replicas(self) -> int | None:
        return self.view.replicas if self.view else None

    def _holds_answer(self, target: int, now: float) -> bool:
        """True when the loop's answer to this poll's Deployment read is
        fresh for a decision of ``target`` replicas, so the poll writes
        against it without reading; the module docstring states and derives
        the rule. A fresh poll's decision is final: skipping the read changes
        none of its inputs. At 0 replicas the rule needs no target; at 0 and
        at the cap the poll asks with the count it holds before it polls
        GitHub."""
        view, policy = self.view, self.policy
        if view is None or self.kube_streaks.errors or now - view.read_at >= policy.min_dwell:
            return False
        if view.replicas == 0:
            return self.state.last_active == self._persisted.last_active
        due = keepalive_due_at(self.state.last_active, policy)
        next_stale_decision = view.read_at + policy.min_dwell + 2 * policy.poll_interval
        return target >= 1 and due is not None and due > next_stale_decision

    def _observe_kube(self) -> DeploymentSnapshot:
        """The poll's Kubernetes read: a GET of the Deployment, which
        carries spec and ready replicas and the annotations. The first
        successful read of this incarnation also loads the durable state
        from those annotations."""
        deployment = self.kube.read_scale()
        now = self.clock.now()
        self.view = DeploymentView(deployment.spec_replicas, now, now, deployment.ready_replicas >= 1)
        if self._persisted is None:
            annotations = deployment.annotations
            self.state = self._persisted = replace(
                self.state,
                last_active=_parse_ts(annotations.get(ANNOTATION_LAST_ACTIVE)),
                keepalive_started_at=_parse_ts(annotations.get(ANNOTATION_KEEPALIVE_STARTED)),
            )
        return deployment


def _count(jobs: list[JobRecord] | None, status: str) -> int | None:
    if jobs is None:
        return None
    return sum(1 for job in jobs if job.status == status)


def _format_ts(value: float | None) -> str | None:
    return to_rfc3339(value) if value is not None else None


def _parse_ts(value: str | None) -> float | None:
    if not value:
        return None
    try:
        return from_rfc3339(value)
    except ValueError:
        logger.warning("ignoring unparseable annotation timestamp %r", value)
        return None
