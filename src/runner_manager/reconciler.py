"""Replica-count reconciliation.

One iteration combines three inputs -- GitHub demand, the keepalive
deadline, and observed Kubernetes state -- into a target replica count,
applies it through the scale subresource, and keeps the keepalive
bookkeeping durable in Deployment annotations so a manager restart cannot
silently let the runner's registration token age out.

Decision priority (also implemented, independently, by the harness oracle):

1. GitHub poll failed        -> hold the last written/observed count
2. outstanding matching jobs -> min(count, max_runners)          (demand)
3. keepalive dwell running   -> 1                                (keepalive)
4. keepalive due             -> 1                                (keepalive)
5. otherwise                 -> 0                                (idle)
"""

from __future__ import annotations

import enum
import logging
import threading
from dataclasses import dataclass, replace

from .clock import Clock, from_rfc3339, to_rfc3339
from .config import Policy
from .errors import ApiError, CredentialError, MissingDeploymentError
from .github import BackoffState, GitHubClient, JobRecord, execute_with_backoff
from .kube import KubeClient, PodInfo, ScaleSnapshot

logger = logging.getLogger(__name__)

ANNOTATION_LAST_ACTIVE = "runner-manager/last-active"
ANNOTATION_KEEPALIVE_STARTED = "runner-manager/keepalive-started"

# Consecutive polls with credential failures tolerated before giving up.
CREDENTIAL_EXIT_THRESHOLD = 3


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
    """One poll's combined snapshot. ``scale is None`` means the Kubernetes
    read failed this iteration and no write may be attempted."""

    outstanding_jobs: list[JobRecord]
    scale: ScaleSnapshot | None
    pods: list[PodInfo]
    github_poll_ok: bool

    @property
    def kube_ok(self) -> bool:
        return self.scale is not None


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


def keepalive_due(
    last_active: float | None,
    now: float,
    force_interval: float,
    lead_time: float = 0.0,
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
    if not observation.github_poll_ok:
        target = state.last_written_replicas
        if target is None:
            target = observation.scale.spec_replicas if observation.scale else 0
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
    wrote_scale: bool = False,
) -> ManagerState:
    """Advance keepalive bookkeeping after a decision was applied.

    A live runner refreshes its own token, so ``last_active`` moves to ``now``
    whenever a Running pod is observed -- and only then; a scale-up that never
    produced a Running pod must not count. ``last_active`` never moves backward.
    """
    last_active = state.last_active
    if (
        observation.kube_ok
        and observation.scale.status_replicas >= 1
        and any(pod.phase == "Running" for pod in observation.pods)
    ):
        last_active = now if last_active is None else max(last_active, now)

    keepalive_started = state.keepalive_started_at
    if decision.reason is Reason.KEEPALIVE:
        if keepalive_started is None:
            keepalive_started = now
    elif decision.reason in (Reason.DEMAND, Reason.IDLE):
        keepalive_started = None
    # HOLD freezes keepalive bookkeeping: an API outage neither starts nor
    # cancels a dwell.

    last_written = decision.target_replicas if wrote_scale else state.last_written_replicas

    return ManagerState(
        last_active=last_active,
        keepalive_started_at=keepalive_started,
        last_written_replicas=last_written,
    )


@dataclass
class _Durable:
    """What the manager believes the Deployment annotations currently hold."""

    loaded: bool = False
    last_active: float | None = None
    keepalive_started: float | None = None


class ReconcileLoop:
    """Owns the manager state and executes one reconcile per clock tick."""

    def __init__(
        self,
        github: GitHubClient,
        kube: KubeClient,
        policy: Policy,
        clock: Clock,
        repo,
        stop: threading.Event | None = None,
    ):
        self.github = github
        self.kube = kube
        self.policy = policy
        self.clock = clock
        self.repo = repo
        self.stop = stop or threading.Event()

        self.state = ManagerState()
        self.backoff = BackoffState()
        self.consecutive_github_errors = 0
        self.consecutive_kube_errors = 0
        self._github_credential_streak = 0
        self._kube_credential_streak = 0
        self._kube_failed = False  # this poll saw a failed Kubernetes call
        self._kube_credential_failed = False  # this poll saw a Kubernetes 401/403
        self._durable = _Durable()

    # -- durable state ----------------------------------------------------

    def _load_durable_state(self) -> None:
        annotations = self.kube.read_annotations()
        self._durable.last_active = _parse_ts(annotations.get(ANNOTATION_LAST_ACTIVE))
        self._durable.keepalive_started = _parse_ts(annotations.get(ANNOTATION_KEEPALIVE_STARTED))
        self._durable.loaded = True
        self.state = replace(
            self.state,
            last_active=self._durable.last_active,
            keepalive_started_at=self._durable.keepalive_started,
        )

    def _persist_durable_state(self) -> None:
        """Write whichever annotations changed, in one merge patch."""
        patch = {}
        if self.state.last_active != self._durable.last_active:
            patch[ANNOTATION_LAST_ACTIVE] = _format_ts(self.state.last_active)
        if self.state.keepalive_started_at != self._durable.keepalive_started:
            patch[ANNOTATION_KEEPALIVE_STARTED] = _format_ts(self.state.keepalive_started_at)
        if patch:
            self.kube.write_annotation(patch)
            self._durable.last_active = self.state.last_active
            self._durable.keepalive_started = self.state.keepalive_started_at

    # -- one iteration -----------------------------------------------------

    def reconcile_once(self, tick: float) -> ReconcileRecord | None:
        """Poll, decide, apply, persist. Returns None when stopped mid-poll.

        Transient failures never escape: GitHub trouble degrades to a hold
        decision, Kubernetes trouble skips this iteration's writes. Credential
        failures escape once persistent; a missing Deployment immediately.
        """
        window_end = tick + self.policy.poll_interval

        jobs = self._poll_github(window_end)

        if self.stop.is_set():
            return None

        self._kube_failed = self._kube_credential_failed = False
        scale, pods = self._observe_kube()
        now = self.clock.now()

        observation = Observation(
            outstanding_jobs=jobs if jobs is not None else [],
            scale=scale,
            pods=pods,
            github_poll_ok=jobs is not None,
        )
        decision = compute_desired(observation, self.state, self.policy, now)

        wrote = False
        if (
            observation.kube_ok
            and decision.target_replicas != scale.spec_replicas
            and not self.stop.is_set()
        ):
            try:
                self.kube.write_scale(decision.target_replicas)
                wrote = True
            except MissingDeploymentError:
                raise
            except CredentialError as exc:
                self._note_kube_failure(exc, credential=True)
            except ApiError as exc:
                self._note_kube_failure(exc)

        self.state = update_state(self.state, decision, observation, now, wrote_scale=wrote)

        if observation.kube_ok and self._durable.loaded:
            try:
                self._persist_durable_state()
            except MissingDeploymentError:
                raise
            except ApiError as exc:
                self._note_kube_failure(exc, credential=isinstance(exc, CredentialError))

        if not self._kube_failed:
            self.consecutive_kube_errors = 0
        if not self._kube_credential_failed:
            self._kube_credential_streak = 0

        return ReconcileRecord(
            tick=tick,
            decided_at=now,
            queued=_count(jobs, "queued"),
            in_progress=_count(jobs, "in_progress"),
            observed_replicas=scale.spec_replicas if scale else None,
            desired=decision.target_replicas,
            reason=decision.reason,
            wrote_scale=wrote,
            consecutive_github_errors=self.consecutive_github_errors,
            consecutive_kube_errors=self.consecutive_kube_errors,
            keepalive_next_due=keepalive_due_at(
                self.state.last_active, self.policy.force_interval, self.policy.min_dwell
            ),
            github_rate_limit_remaining=self.github.rate_limit_remaining,
        )

    def _poll_github(self, window_end: float) -> list[JobRecord] | None:
        try:
            jobs, _ = execute_with_backoff(
                lambda: self.github.list_outstanding_jobs(
                    self.repo, self.policy.outstanding_statuses, self.policy.runner_labels
                ),
                self.backoff,
                self.clock,
                window_end=window_end,
                interrupt=self.stop,
            )
        except CredentialError as exc:
            self._github_credential_streak += 1
            self.consecutive_github_errors += 1
            if self._github_credential_streak >= CREDENTIAL_EXIT_THRESHOLD:
                raise
            logger.warning("github poll credential failure (%d): %s", self._github_credential_streak, exc)
            return None
        except ApiError as exc:
            self._github_credential_streak = 0
            self.consecutive_github_errors += 1
            logger.debug("github poll failed, holding: %s", exc)
            return None
        self._github_credential_streak = 0
        self.consecutive_github_errors = 0
        return jobs

    def _observe_kube(self) -> tuple[ScaleSnapshot | None, list[PodInfo]]:
        try:
            if not self._durable.loaded:
                self._load_durable_state()
            scale = self.kube.read_scale()
            pods = self.kube.list_runner_pods(f"app={self.kube.deployment}")
        except MissingDeploymentError:
            raise
        except CredentialError as exc:
            self._note_kube_failure(exc, credential=True)
            return None, []
        except ApiError as exc:
            self._note_kube_failure(exc)
            return None, []
        return scale, pods

    def _note_kube_failure(self, exc: ApiError, credential: bool = False) -> None:
        """Count a failed call. As for GitHub, both streaks count polls: the
        first failure (or 401/403) of a poll adds one, and ``reconcile_once``
        resets the streak after a poll with none, so a readable but
        unwritable Deployment still reaches the exit threshold."""
        if not self._kube_failed:
            self._kube_failed = True
            self.consecutive_kube_errors += 1
        if credential:
            if not self._kube_credential_failed:
                self._kube_credential_failed = True
                self._kube_credential_streak += 1
            if self._kube_credential_streak >= CREDENTIAL_EXIT_THRESHOLD:
                raise exc
            logger.warning("kubernetes credential failure (%d): %s", self._kube_credential_streak, exc)
        else:
            logger.debug("kubernetes call failed, skipping writes: %s", exc)


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
