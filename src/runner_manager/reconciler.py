"""Replica-count reconciliation.

One iteration combines three inputs -- the outstanding matching jobs (None
when the GitHub poll failed, at least ``max_runners`` when saturated), the
keepalive deadline, and the Deployment (None when its read failed or was
skipped, and then nothing is written) -- into a target replica count, and
keeps the keepalive bookkeeping durable in Deployment annotations so a
manager restart cannot silently let the runner's registration token age
out. A poll sends at most one write: one merge patch of the Deployment that
carries the new ``spec.replicas`` and whichever annotations changed, or the
annotations alone when the count stays.

A poll reads the Deployment unless it is an idle poll whose answer the loop
already holds: it decides idle less than ``min_dwell`` after this
incarnation last read the Deployment, the last Kubernetes call succeeded,
``spec.replicas`` is 0 as last read or as the loop last wrote it, and no
annotation waits to be written. Such a poll sends no Kubernetes request,
and its record reports the replica count the loop holds. The decision needs
the Deployment only to hold, so it is the same either way. An idle manager
thus reads about once per ``min_dwell``: a hand scale-up is undone within
``min_dwell`` plus one poll, and a revoked token or a deleted Deployment
fails the first read after it, at most ``min_dwell`` late.

Decision priority (also implemented, independently, by the harness oracle):

1. GitHub poll failed        -> hold the last written/observed count
2. outstanding matching jobs -> min(count, max_runners)          (demand)
3. keepalive dwell running   -> 1                                (keepalive)
4. keepalive due             -> 1                                (keepalive)
5. otherwise                 -> 0                                (idle)

A poll runs at every tick of a fixed grid, ``start + k * poll_interval``,
and also at the instant the last decision changes with time alone
(:func:`decision_changes_at`) when that falls strictly between the poll
and the next tick: the end of a keepalive dwell, or the instant an idle
manager's keepalive falls due. Such a poll takes no tick from the grid, and
its GitHub window is ``poll_interval`` long like a tick's. So a keepalive
starts when it falls due and ends ``min_dwell`` later, not at the next
tick after either.

The ``last-active`` annotation trails the in-memory stamp by less than
``min_dwell`` while a ready runner stays wanted, and is exact from the poll
that scales to zero or first sees no ready replica. A restarted manager
reads a trailing stamp only if the runner was up when the last one stopped.
If the runner is still ready, the first poll moves the stamp to now; if it
died unseen, the keepalive falls due at most ``min_dwell + poll_interval``
early, never late, so the credential is never older than with an exact stamp.
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
    last_written_replicas: int | None = None


@dataclass(slots=True)
class ReconcileRecord:
    """One loop iteration's facts: the log line, the trace entry and /status.
    The harness trace keeps each one as it is and renders it on demand."""

    tick: float
    decided_at: float
    queued: int | None
    in_progress: int | None
    observed_replicas: int | None  # spec.replicas as last read or written; None: this poll's read failed
    desired: int
    reason: Reason
    wrote_scale: bool
    consecutive_github_errors: int
    consecutive_kube_errors: int
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
            "consecutive_github_errors": self.consecutive_github_errors,
            "consecutive_kube_errors": self.consecutive_kube_errors,
            "keepalive_next_due": _format_ts(self.keepalive_next_due),
            "github_rate_limit_remaining": self.github_rate_limit_remaining,
        }


@dataclass
class _Streaks:
    """One API's failure streaks, both counted in polls, not calls: polls in
    a row with a failed call, and polls in a row with a 401/403. An API fails
    at most once a poll: the Deployment is written only after it is read."""

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
    when the keepalive falls due. None after demand and hold, which only a
    poll's inputs change. The loop also polls at this instant when it falls
    strictly between now and the next tick."""
    if reason is Reason.KEEPALIVE:
        return state.keepalive_started_at + policy.min_dwell
    if reason is Reason.IDLE:
        return keepalive_due_at(state.last_active, policy)
    return None


def compute_desired(
    jobs: list[JobRecord] | None,
    deployment: DeploymentSnapshot | None,
    state: ManagerState,
    policy: Policy,
    now: float,
) -> Decision:
    """Pure decision function; see the priority table in the module docstring.

    ``jobs`` holds, in no set order, every outstanding matching job when
    there are fewer than ``max_runners``, and at least ``max_runners`` of
    them when saturated -- all that the demand rule needs. The jobs of
    in-progress runs are read first, and queued runs are listed only when
    those hold fewer than ``max_runners``, so a poll saturated by
    in-progress runs counts no job of a queued run. A run that starts
    between the two listing reads is in neither, and the next poll counts
    it. None means the GitHub poll failed, so the decision holds.
    ``deployment`` is None when the Kubernetes read failed.
    """
    if jobs is None:
        target = state.last_written_replicas
        if target is None:
            target = deployment.spec_replicas if deployment else 0
        return Decision(min(target, policy.max_runners), Reason.HOLD)

    if jobs:
        return Decision(min(len(jobs), policy.max_runners), Reason.DEMAND)

    if state.keepalive_started_at is not None and now - state.keepalive_started_at < policy.min_dwell:
        return Decision(1, Reason.KEEPALIVE)

    if keepalive_due(state.last_active, now, policy):
        return Decision(1, Reason.KEEPALIVE)

    return Decision(0, Reason.IDLE)


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
    elif decision.reason in (Reason.DEMAND, Reason.IDLE):
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
        # spec.replicas as last read or written, and when it was last read;
        # None until this incarnation first reads the Deployment.
        self._known_replicas: int | None = None
        self._read_at: float | None = None

    # -- durable state ----------------------------------------------------

    def _write(self, replicas: int | None, trailing: bool) -> bool:
        """Send the poll's one write, if it has one: a merge patch of the
        Deployment with ``spec.replicas`` (unless ``replicas`` is None) and
        whichever annotations changed. True when it wrote ``spec.replicas``.

        On a ``trailing`` poll -- a replica is ready and stays wanted --
        ``last-active`` is sent only once the in-memory stamp is ``min_dwell``
        past it, so it trails by less than ``min_dwell``. That is safe: the
        poll that stops wanting the runner, or first misses it, sends the
        exact stamp (the module docstring has the restart case).
        ``_persisted`` keeps the ``last-active`` actually sent; a refused
        write leaves it as it was, so the next poll sends the same again.
        """
        last_active, persisted = self.state.last_active, self._persisted.last_active
        if trailing and persisted is not None and last_active - persisted < self.policy.min_dwell:
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

        jobs = self.github_streaks.step(lambda: self._poll_github(window_end))
        self.github_streaks.end_poll()

        if self.stop.is_set():
            return None

        now = self.clock.now()
        if self._idle_as_known(jobs, now):
            deployment, observed = None, self._known_replicas
        else:
            deployment = self.kube_streaks.step(self._observe_kube)
            now = self.clock.now()
            observed = deployment.spec_replicas if deployment else None

        decision = compute_desired(jobs, deployment, self.state, self.policy, now)

        self.state = update_state(self.state, decision, deployment, now)

        wrote = False
        if deployment is not None:
            target = decision.target_replicas
            replicas = target if target != deployment.spec_replicas and not self.stop.is_set() else None
            trailing = deployment.ready_replicas >= 1 and target >= 1
            wrote = bool(self.kube_streaks.step(lambda: self._write(replicas, trailing)))
        if wrote:
            self.state = replace(self.state, last_written_replicas=decision.target_replicas)
            self._known_replicas = decision.target_replicas

        # Counting polls, not calls, a readable but unwritable Deployment
        # still reaches the exit threshold.
        self.kube_streaks.end_poll()

        return ReconcileRecord(
            tick=tick,
            decided_at=now,
            queued=_count(jobs, "queued"),
            in_progress=_count(jobs, "in_progress"),
            observed_replicas=observed,
            desired=decision.target_replicas,
            reason=decision.reason,
            wrote_scale=wrote,
            consecutive_github_errors=self.github_streaks.errors,
            consecutive_kube_errors=self.kube_streaks.errors,
            keepalive_next_due=keepalive_due_at(self.state.last_active, self.policy),
            github_rate_limit_remaining=self.github.rate_limit_remaining,
        )

    def _poll_github(self, window_end: float) -> list[JobRecord]:
        return execute_with_backoff(
            lambda: self.github.list_outstanding_jobs(self.repo, self.policy.runner_labels, self.policy.max_runners),
            self.backoff,
            self.clock,
            window_end=window_end,
            interrupt=self.stop,
        )

    def _idle_as_known(self, jobs: list[JobRecord] | None, now: float) -> bool:
        """True when this poll decides idle and the loop already holds what
        its Deployment read would tell: this incarnation read the Deployment
        less than ``min_dwell`` ago, its last Kubernetes call succeeded, it
        knows ``spec.replicas`` to be 0, and the annotations already hold the
        state this decision leaves. Such a poll sends no Kubernetes request;
        the decision needs no Deployment, which only a hold reads."""
        if self._known_replicas != 0 or self.kube_streaks.errors or now - self._read_at >= self.policy.min_dwell:
            return False
        decision = compute_desired(jobs, None, self.state, self.policy, now)
        if decision.reason is not Reason.IDLE:
            return False
        after = update_state(self.state, decision, None, now)
        persisted = self._persisted
        return (after.last_active, after.keepalive_started_at) == (persisted.last_active, persisted.keepalive_started_at)

    def _observe_kube(self) -> DeploymentSnapshot:
        """The poll's Kubernetes read: a GET of the Deployment, which
        carries spec and ready replicas and the annotations. The first
        successful read of this incarnation also loads the durable state
        from those annotations."""
        deployment = self.kube.read_scale()
        self._known_replicas, self._read_at = deployment.spec_replicas, self.clock.now()
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
