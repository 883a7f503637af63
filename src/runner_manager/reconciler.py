"""Replica-count reconciliation.

One iteration combines three inputs -- GitHub demand, the keepalive
deadline, and observed Kubernetes state -- into a target replica count,
and keeps the keepalive bookkeeping durable in Deployment annotations so a
manager restart cannot silently let the runner's registration token age out.
A poll sends at most one write: one merge patch of the Deployment that
carries the new ``spec.replicas`` and whichever annotations changed, or the
annotations alone when the count stays.

Decision priority (also implemented, independently, by the harness oracle):

1. GitHub poll failed        -> hold the last written/observed count
2. outstanding matching jobs -> min(count, max_runners)          (demand)
3. keepalive dwell running   -> 1                                (keepalive)
4. keepalive due             -> 1                                (keepalive)
5. otherwise                 -> 0                                (idle)

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
class Observation:
    """One poll's combined snapshot. ``outstanding_jobs`` holds, in no set
    order, every outstanding matching job when there are fewer than
    ``max_runners``, and at least ``max_runners`` of them otherwise -- all
    that the demand rule needs. The jobs of in-progress runs are read
    first, and queued runs are listed only when those hold fewer than
    ``max_runners``, so a poll saturated by in-progress runs counts no job
    of a queued run. A run that starts between the two listing reads is in
    neither, and the next poll counts it. ``outstanding_jobs is None`` means the
    GitHub poll failed this iteration, so the decision holds. ``deployment is None`` means the
    Kubernetes read failed this iteration and no write may be attempted."""

    outstanding_jobs: list[JobRecord] | None
    deployment: DeploymentSnapshot | None

    @property
    def kube_ok(self) -> bool:
        return self.deployment is not None


@dataclass(frozen=True)
class ManagerState:
    last_active: float | None = None
    keepalive_started_at: float | None = None
    last_written_replicas: int | None = None


@dataclass
class ReconcileRecord:
    """One loop iteration's facts: the log line, the trace entry and /status."""

    tick: float
    decided_at: float
    queued: int | None
    in_progress: int | None
    observed_replicas: int | None
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
    a row with any failed call, and polls in a row with a 401/403."""

    api: str
    errors: int = 0
    credential: int = 0

    def end_poll(self, failures: list[ApiError]) -> None:
        self.errors = self.errors + 1 if failures else 0
        refused = any(isinstance(exc, CredentialError) for exc in failures)
        self.credential = self.credential + 1 if refused else 0


def _step(streaks: _Streaks, failures: list[ApiError], step: Callable[[], T]) -> T | None:
    """Run one API step; a failure joins this poll's ``failures`` and yields
    None. A 401/403 escapes at once when this poll would bring the credential
    streak to the exit threshold, so the terminal poll sends no further
    request. A missing Deployment escapes at once."""
    try:
        return step()
    except MissingDeploymentError:
        raise
    except CredentialError as exc:
        failures.append(exc)
        streak = streaks.credential + 1
        if streak >= CREDENTIAL_EXIT_THRESHOLD:
            raise
        logger.warning("%s credential failure (%d): %s", streaks.api, streak, exc)
    except ApiError as exc:
        failures.append(exc)
        logger.debug("%s call failed: %s", streaks.api, exc)
    return None


def keepalive_due(
    last_active: float | None,
    now: float,
    force_interval: float,
    lead_time: float,
) -> bool:
    """True when a forced provisioning must start.

    ``lead_time`` (the reconciler passes ``min_dwell``) starts the activation
    early enough that the full dwell completes within ``force_interval`` of
    the previous confirmed activity, so activation starts repeat every
    ``force_interval`` rather than every ``force_interval + dwell``. An
    unknown ``last_active`` (fresh install) counts as stale.
    """
    if last_active is None:
        return True
    return now - last_active >= force_interval - lead_time


def keepalive_due_at(last_active: float | None, force_interval: float, lead_time: float) -> float | None:
    """The instant :func:`keepalive_due` turns true; None while ``last_active``
    is unknown, because then it is due already."""
    if last_active is None:
        return None
    return last_active + force_interval - lead_time


def compute_desired(
    observation: Observation,
    state: ManagerState,
    policy: Policy,
    now: float,
) -> Decision:
    """Pure decision function; see the priority table in the module docstring."""
    if observation.outstanding_jobs is None:
        target = state.last_written_replicas
        if target is None:
            target = observation.deployment.spec_replicas if observation.deployment else 0
        return Decision(min(target, policy.max_runners), Reason.HOLD)

    outstanding = len(observation.outstanding_jobs)
    if outstanding > 0:
        return Decision(min(outstanding, policy.max_runners), Reason.DEMAND)

    if state.keepalive_started_at is not None and now - state.keepalive_started_at < policy.min_dwell:
        return Decision(1, Reason.KEEPALIVE)

    if keepalive_due(state.last_active, now, policy.force_interval, policy.min_dwell):
        return Decision(1, Reason.KEEPALIVE)

    return Decision(0, Reason.IDLE)


def update_state(
    state: ManagerState,
    decision: Decision,
    observation: Observation,
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
    if observation.kube_ok and observation.deployment.ready_replicas >= 1:
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

        github_failures: list[ApiError] = []
        jobs = _step(self.github_streaks, github_failures, lambda: self._poll_github(window_end))
        self.github_streaks.end_poll(github_failures)

        if self.stop.is_set():
            return None

        failures: list[ApiError] = []  # this poll's failed Kubernetes calls
        deployment = _step(self.kube_streaks, failures, self._observe_kube)
        now = self.clock.now()

        observation = Observation(outstanding_jobs=jobs, deployment=deployment)
        decision = compute_desired(observation, self.state, self.policy, now)

        self.state = update_state(self.state, decision, observation, now)

        wrote = False
        if observation.kube_ok:
            target = decision.target_replicas
            replicas = target if target != deployment.spec_replicas and not self.stop.is_set() else None
            trailing = deployment.ready_replicas >= 1 and target >= 1
            wrote = bool(_step(self.kube_streaks, failures, lambda: self._write(replicas, trailing)))
        if wrote:
            self.state = replace(self.state, last_written_replicas=decision.target_replicas)

        # Counting polls, not calls, a readable but unwritable Deployment
        # still reaches the exit threshold.
        self.kube_streaks.end_poll(failures)

        return ReconcileRecord(
            tick=tick,
            decided_at=now,
            queued=_count(jobs, "queued"),
            in_progress=_count(jobs, "in_progress"),
            observed_replicas=deployment.spec_replicas if deployment else None,
            desired=decision.target_replicas,
            reason=decision.reason,
            wrote_scale=wrote,
            consecutive_github_errors=self.github_streaks.errors,
            consecutive_kube_errors=self.kube_streaks.errors,
            keepalive_next_due=keepalive_due_at(
                self.state.last_active, self.policy.force_interval, self.policy.min_dwell
            ),
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

    def _observe_kube(self) -> DeploymentSnapshot:
        """The poll's one Kubernetes read: a GET of the Deployment, which
        carries spec and ready replicas and the annotations. The first
        successful read of this incarnation also loads the durable state
        from those annotations."""
        deployment = self.kube.read_scale()
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
