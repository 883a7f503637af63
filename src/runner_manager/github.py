"""GitHub Actions REST API client.

Enumerates outstanding workflow jobs for one repository, filters them by
runner-label eligibility and mints runner registration tokens. Requests are
single-shot here; retry pacing lives in :func:`execute_with_backoff` so the
control loop decides how much of its poll window to spend retrying.

Every listing is a conditional request: a page answered with an ``ETag``
is stored as soon as it is read and asked for again with ``If-None-Match``,
and a ``304 Not Modified``, which GitHub does not charge against the primary
rate limit, reuses the parsed page. A completed poll keeps the run listing
pages and the job pages of the runs each listing held when it was last
read, read this poll or not; a failed one keeps what it read, since each
page is a true answer of the server.

The manager needs only ``min(jobs, max_runners)``, so it passes
``max_runners`` as the poll's ``limit``. A poll reads the ``in_progress``
run listing and the job listings of its runs first, and reads the
``queued`` run listing only when those hold fewer than ``limit`` matching
outstanding jobs. New pushes keep changing the ``queued`` listing, so most
of its reads are charged; a poll saturated by busy runners skips it. A run
that starts between the two listing reads is in neither for that poll and
is found by the next. Runs whose jobs, when last read, held no matching
outstanding job are read last, so a repository full of runs only hosted or
foreign runners can take costs about ``max_runners`` job listings a poll.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from dataclasses import dataclass
from typing import Any, Callable, TypeVar
from urllib.parse import quote

from .clock import Clock, SystemClock, from_rfc3339
from .config import OUTSTANDING_STATUSES, RepoCoordinates
from .errors import (
    CredentialError,
    ProtocolError,
    RateLimitedError,
    TransientError,
)
from .labels import LabelSet
from .transport import HttpResponse, HttpTransport

logger = logging.getLogger(__name__)

API_VERSION = "2022-11-28"
ACCEPT = "application/vnd.github+json"
PAGE_SIZE = 100
# GitHub returns at most 1,000 results for a status-filtered run listing, and
# a matrix yields at most 256 jobs per run, so 10 full pages cover either; a
# server still sending full pages past that must not keep a poll looping.
MAX_PAGES = 10

BACKOFF_BASE = 1.0
BACKOFF_FACTOR = 2.0
BACKOFF_CAP = 60.0


@dataclass(frozen=True)
class JobRecord:
    job_id: int
    status: str
    requested_labels: LabelSet


@dataclass(frozen=True)
class RegistrationToken:
    token: str
    expires_at: float


@dataclass
class BackoffState:
    """Failure streak and the earliest moment another attempt may be made."""

    consecutive_failures: int = 0
    next_allowed_attempt: float = 0.0


def backoff_delay(consecutive_failures: int) -> float:
    """Deterministic schedule: 1 s, 2 s, 4 s, ... capped at 60 s."""
    if consecutive_failures < 1:
        return 0.0
    return min(BACKOFF_BASE * BACKOFF_FACTOR ** (consecutive_failures - 1), BACKOFF_CAP)


T = TypeVar("T")


def execute_with_backoff(
    call: Callable[[], T],
    state: BackoffState,
    clock: Clock,
    window_end: float,
    interrupt: threading.Event,
) -> T:
    """Run ``call`` with exponential backoff confined to the current poll window.

    Transient and rate-limit failures bump ``consecutive_failures`` and set
    ``next_allowed_attempt`` (Retry-After wins over the schedule); ``state``
    is updated in place. The wait never crosses ``window_end``: when the next
    permitted attempt falls at or beyond it, the last failure propagates and
    the caller skips this window. Credential and protocol errors propagate
    immediately, unretried.
    """
    while True:
        now = clock.now()
        if state.next_allowed_attempt > now:
            if state.next_allowed_attempt >= window_end:
                raise TransientError(
                    f"backing off until {state.next_allowed_attempt:.0f} (beyond this poll window)"
                )
            clock.wait_until(state.next_allowed_attempt, interrupt)
            if interrupt.is_set():
                raise TransientError("interrupted while waiting out backoff")
        attempt_at = clock.now()
        try:
            result = call()
        except (TransientError, RateLimitedError) as exc:
            state.consecutive_failures += 1
            delay = backoff_delay(state.consecutive_failures)
            if isinstance(exc, RateLimitedError) and exc.retry_after is not None:
                delay = exc.retry_after
            state.next_allowed_attempt = attempt_at + delay
            if state.next_allowed_attempt >= window_end:
                raise
            if interrupt.is_set():
                raise
            continue
        state.consecutive_failures = 0
        state.next_allowed_attempt = attempt_at
        return result


class GitHubClient:
    """Authenticated client bound to one API base URL."""

    def __init__(
        self,
        api_base: str,
        token: str,
        transport: HttpTransport | None = None,
        clock: Clock | None = None,
    ):
        self._api_base = api_base.rstrip("/")
        self._token = token
        self._transport = transport or HttpTransport(self._api_base)
        self._clock = clock or SystemClock()
        # path -> (ETag, parsed body) of the listing pages read; only
        # _paginated fills it, so a POST is never cached.
        self._pages: dict[str, tuple[str, Any]] = {}
        # Listed runs whose jobs, when last read, held no counted job.
        self._barren: set[int] = set()
        # The run ids the queued listing held when last read; a saturated
        # poll does not read it.
        self._queued: set[int] = set()
        self.rate_limit_remaining: int | None = None  # last x-ratelimit-remaining seen

    @property
    def api_base(self) -> str:
        return self._api_base

    def close(self) -> None:
        self._transport.close()

    def _headers(self) -> dict[str, str]:
        return {
            "Authorization": f"Bearer {self._token}",
            "Accept": ACCEPT,
            "X-GitHub-Api-Version": API_VERSION,
            "User-Agent": "runner-manager",
        }

    def _request(self, method: str, path: str, body: dict | None = None) -> tuple[str | None, Any]:
        """The answer's ``ETag`` (None without one) and parsed body; a
        ``304`` answers with the cached page."""
        headers = self._headers()
        payload = None
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        cached = self._pages.get(path)
        if cached is not None:
            headers["If-None-Match"] = cached[0]
        response = self._transport.request(method, path, headers, payload)
        remaining = response.header("x-ratelimit-remaining")
        if remaining is not None and remaining.isdigit():
            self.rate_limit_remaining = int(remaining)
        if response.status == 304:
            if cached is None:
                raise ProtocolError(f"{method} {path}: 304 for a request that was not conditional")
            return cached
        self._raise_for_status(method, path, response)
        try:
            return response.header("etag"), json.loads(response.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"{method} {path}: body is not valid JSON") from exc

    def _raise_for_status(self, method: str, path: str, response: HttpResponse) -> None:
        status = response.status
        if status < 400:
            return
        where = f"{method} {path} -> {status}"
        if status == 429 or (status == 403 and response.header("retry-after") is not None):
            # A 403 with Retry-After is GitHub's secondary rate limit.
            raise RateLimitedError(where, status, retry_after=_positive_seconds(response.header("retry-after")))
        if status == 403 and response.header("x-ratelimit-remaining") == "0":
            reset = _positive_seconds(response.header("x-ratelimit-reset"))
            wait = max(reset - self._clock.now(), 1.0) if reset is not None else None
            raise RateLimitedError(f"{where} (rate limit exhausted)", status, retry_after=wait)
        if status in (401, 403):
            raise CredentialError(where, status)
        if status == 404:
            raise CredentialError(f"{where} (repository not found or token lacks access)", status)
        if status >= 500:
            raise TransientError(where, status)
        raise ProtocolError(f"{where} (unexpected status)", status)

    def _paginated(self, path_base: str, item_key: str) -> list[dict]:
        """Every item of a listing, reading at most ``MAX_PAGES`` pages; a
        listing still full at the cap keeps what was read and logs a warning."""
        items: list[dict] = []
        sep = "&" if "?" in path_base else "?"
        for page in range(1, MAX_PAGES + 1):
            path = f"{path_base}{sep}per_page={PAGE_SIZE}&page={page}"
            etag, data = self._request("GET", path)
            if not isinstance(data, dict) or not isinstance(data.get(item_key), list):
                raise ProtocolError(f"GET {path_base}: missing '{item_key}' array")
            if etag is not None:
                self._pages[path] = (etag, data)
            chunk = data[item_key]
            items.extend(chunk)
            if len(chunk) < PAGE_SIZE:
                return items
        logger.warning(
            "GET %s: still full after %d pages, keeping the first %d items", path_base, MAX_PAGES, len(items)
        )
        return items

    def list_runs(self, repo: RepoCoordinates, status: str) -> list[int]:
        """The ids of the runs listed under ``status``."""
        path = f"{_runs_path(repo)}?status={quote(status)}"
        raw = self._paginated(path, "workflow_runs")
        try:
            return [int(entry["id"]) for entry in raw]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"GET {path}: workflow run entry malformed") from exc

    def list_run_jobs(self, repo: RepoCoordinates, run_id: int) -> list[JobRecord]:
        raw = self._paginated(_run_jobs_path(repo, run_id), "jobs")
        jobs = []
        for entry in raw:
            labels = entry.get("labels", []) if isinstance(entry, dict) else None
            if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
                raise ProtocolError(f"job entry malformed: {entry!r}")
            try:
                jobs.append(
                    JobRecord(
                        job_id=int(entry["id"]),
                        status=str(entry["status"]),
                        requested_labels=LabelSet(labels),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(f"job entry malformed: {entry!r}") from exc
        return jobs

    def list_outstanding_jobs(self, repo: RepoCoordinates, runner_labels: LabelSet, limit: int) -> list[JobRecord]:
        """Label-eligible jobs whose status is outstanding, every one of them
        when there are fewer than ``limit``, and at least ``limit`` otherwise.

        A job is counted when it is outstanding and its labels match; a run
        whose jobs held no counted job when last read is barren. The
        ``in_progress`` run listing is read first, then the job listings of
        its runs that are not barren. Only when those hold fewer than
        ``limit`` counted jobs is the ``queued`` run listing read, and then
        every listed run not yet read, barren runs last. Each group goes in
        ascending run id; fixed request order keeps the fake-server logs
        deterministic. No further run is read once ``limit`` jobs are
        collected; a run's job pages are always read in full.

        The two listings are read one after the other, so a run that moves
        from ``queued`` to ``in_progress`` between the two reads is in
        neither for this poll; the next poll finds it. A completed poll drops
        the pages and flags of runs absent from each listing's latest read.
        """
        jobs: list[JobRecord] = []

        def read_runs(run_ids: set[int]) -> None:
            for run_id in sorted(run_ids, key=lambda run_id: (run_id in self._barren, run_id)):
                if len(jobs) >= limit:
                    return
                counted = [
                    job
                    for job in self.list_run_jobs(repo, run_id)
                    if job.status in OUTSTANDING_STATUSES and job.requested_labels.issubset(runner_labels)
                ]
                if counted:
                    self._barren.discard(run_id)
                else:
                    self._barren.add(run_id)
                jobs.extend(counted)

        in_progress = set(self.list_runs(repo, "in_progress"))
        first = in_progress - self._barren
        read_runs(first)
        if len(jobs) < limit:
            self._queued = set(self.list_runs(repo, "queued"))
            read_runs((in_progress | self._queued) - first)
        listed = in_progress | self._queued
        kept = {_runs_path(repo), *(_run_jobs_path(repo, run_id) for run_id in listed)}
        self._pages = {path: entry for path, entry in self._pages.items() if path.partition("?")[0] in kept}
        self._barren &= listed
        return jobs

    def create_registration_token(self, repo: RepoCoordinates) -> RegistrationToken:
        path = f"/repos/{quote(repo.owner)}/{quote(repo.repo)}/actions/runners/registration-token"
        _, data = self._request("POST", path)
        if not isinstance(data, dict) or "token" not in data or "expires_at" not in data:
            raise ProtocolError(f"POST {path}: body missing token/expires_at")
        try:
            expires = from_rfc3339(str(data["expires_at"]))
        except ValueError as exc:
            raise ProtocolError(f"POST {path}: bad expires_at {data['expires_at']!r}") from exc
        return RegistrationToken(token=str(data["token"]), expires_at=expires)


def _runs_path(repo: RepoCoordinates) -> str:
    return f"/repos/{quote(repo.owner)}/{quote(repo.repo)}/actions/runs"


def _run_jobs_path(repo: RepoCoordinates, run_id: int) -> str:
    return f"{_runs_path(repo)}/{run_id}/jobs"


def _positive_seconds(value: str | None) -> float | None:
    """A header's seconds when finite and positive. Anything else is None,
    which leaves the wait to the backoff schedule: a zero, negative or NaN
    wait would retry at once, an infinite one would never poll again."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if 0 < seconds < math.inf else None
