"""GitHub Actions REST API client.

Enumerates outstanding workflow jobs for one repository, filters them by
runner-label eligibility and mints runner registration tokens. Requests are
single-shot here; retry pacing lives in :func:`execute_with_backoff` so the
control loop decides how much of its poll window to spend retrying.

Every listing is a conditional request: a page answered with an ``ETag``
is asked for again with ``If-None-Match``, and a ``304 Not Modified``, which
GitHub does not charge against the primary rate limit, reuses the parsed
page. The cache holds exactly the pages the last completed poll read.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any, Callable, TypeVar
from urllib.parse import quote

from .clock import Clock, SystemClock, from_rfc3339
from .config import RepoCoordinates
from .errors import (
    CredentialError,
    ProtocolError,
    RateLimitedError,
    TransientError,
)
from .labels import LabelSet, job_matches_labels
from .transport import HttpResponse, HttpTransport

API_VERSION = "2022-11-28"
ACCEPT = "application/vnd.github+json"
PAGE_SIZE = 100

BACKOFF_BASE = 1.0
BACKOFF_FACTOR = 2.0
BACKOFF_CAP = 60.0


@dataclass(frozen=True)
class RunRecord:
    run_id: int
    status: str


@dataclass(frozen=True)
class JobRecord:
    job_id: int
    run_id: int
    status: str
    requested_labels: LabelSet
    created_at: float


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
    window_end: float | None = None,
    interrupt: threading.Event | None = None,
) -> tuple[T, BackoffState]:
    """Run ``call`` with exponential backoff confined to the current poll window.

    Transient and rate-limit failures bump ``consecutive_failures`` and set
    ``next_allowed_attempt`` (Retry-After wins over the schedule). The wait
    never crosses ``window_end``: when the next permitted attempt falls at or
    beyond it, the last failure propagates and the caller skips this window.
    Credential and protocol errors propagate immediately, unretried.
    """
    while True:
        now = clock.now()
        if state.next_allowed_attempt > now:
            if window_end is not None and state.next_allowed_attempt >= window_end:
                raise TransientError(
                    f"backing off until {state.next_allowed_attempt:.0f} (beyond this poll window)"
                )
            clock.wait_until(state.next_allowed_attempt, interrupt)
            if interrupt is not None and interrupt.is_set():
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
            if window_end is None or state.next_allowed_attempt >= window_end:
                raise
            if interrupt is not None and interrupt.is_set():
                raise
            continue
        state.consecutive_failures = 0
        state.next_allowed_attempt = attempt_at
        return result, state


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
        self._transport = transport or HttpTransport()
        self._clock = clock or SystemClock()
        # path -> (ETag, parsed body) for every page the last completed poll
        # read; only list_outstanding_jobs fills it, so a POST is never cached.
        self._pages: dict[str, tuple[str, Any]] = {}
        self._poll_pages: dict[str, tuple[str, Any]] | None = None  # filled during a poll
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

    def _request(self, method: str, path: str, body: dict | None = None) -> Any:
        headers = self._headers()
        payload = None
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        cached = self._pages.get(path)
        if cached is not None:
            headers["If-None-Match"] = cached[0]
        response = self._transport.request(method, f"{self._api_base}{path}", headers, payload)
        remaining = response.header("x-ratelimit-remaining")
        if remaining is not None and remaining.isdigit():
            self.rate_limit_remaining = int(remaining)
        if response.status == 304:
            if cached is None:
                raise ProtocolError(f"{method} {path}: 304 for a request that was not conditional")
            entry = cached
        else:
            self._raise_for_status(method, path, response)
            try:
                data = json.loads(response.body)
            except (ValueError, UnicodeDecodeError) as exc:
                raise ProtocolError(f"{method} {path}: body is not valid JSON") from exc
            etag = response.header("etag")
            if etag is None:
                return data
            entry = (etag, data)
        if self._poll_pages is not None:
            self._poll_pages[path] = entry
        return entry[1]

    def _raise_for_status(self, method: str, path: str, response: HttpResponse) -> None:
        status = response.status
        if status < 400:
            return
        where = f"{method} {path} -> {status}"
        if status == 429 or (status == 403 and response.header("retry-after") is not None):
            # A 403 with Retry-After is GitHub's secondary rate limit.
            raise RateLimitedError(where, status, retry_after=_retry_after_seconds(response))
        if status == 403 and response.header("x-ratelimit-remaining") == "0":
            reset = response.header("x-ratelimit-reset")
            wait = None
            if reset is not None:
                try:
                    wait = max(float(reset) - self._clock.now(), 1.0)
                except ValueError:
                    wait = None
            raise RateLimitedError(f"{where} (rate limit exhausted)", status, retry_after=wait)
        if status in (401, 403):
            raise CredentialError(where, status)
        if status == 404:
            raise CredentialError(f"{where} (repository not found or token lacks access)", status)
        if status >= 500:
            raise TransientError(where, status)
        raise ProtocolError(f"{where} (unexpected status)", status)

    def _paginated(self, path_base: str, item_key: str) -> list[dict]:
        items: list[dict] = []
        page = 1
        while True:
            sep = "&" if "?" in path_base else "?"
            data = self._request("GET", f"{path_base}{sep}per_page={PAGE_SIZE}&page={page}")
            if not isinstance(data, dict) or not isinstance(data.get(item_key), list):
                raise ProtocolError(f"GET {path_base}: missing '{item_key}' array")
            chunk = data[item_key]
            items.extend(chunk)
            if len(chunk) < PAGE_SIZE:
                return items
            page += 1

    def list_runs(self, repo: RepoCoordinates, status: str) -> list[RunRecord]:
        path = f"/repos/{quote(repo.owner)}/{quote(repo.repo)}/actions/runs?status={quote(status)}"
        raw = self._paginated(path, "workflow_runs")
        runs = []
        for entry in raw:
            try:
                runs.append(RunRecord(run_id=int(entry["id"]), status=str(entry["status"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(f"workflow run entry malformed: {entry!r}") from exc
        return runs

    def list_run_jobs(self, repo: RepoCoordinates, run_id: int) -> list[JobRecord]:
        path = f"/repos/{quote(repo.owner)}/{quote(repo.repo)}/actions/runs/{run_id}/jobs"
        raw = self._paginated(path, "jobs")
        jobs = []
        for entry in raw:
            try:
                jobs.append(
                    JobRecord(
                        job_id=int(entry["id"]),
                        run_id=int(entry["run_id"]),
                        status=str(entry["status"]),
                        requested_labels=LabelSet(entry.get("labels", [])),
                        created_at=from_rfc3339(str(entry["created_at"])),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(f"job entry malformed: {entry!r}") from exc
        return jobs

    def list_outstanding_jobs(
        self,
        repo: RepoCoordinates,
        statuses: frozenset[str] | set[str],
        runner_labels: LabelSet,
    ) -> list[JobRecord]:
        """All label-eligible jobs whose status is outstanding, oldest first.

        One run listing per status value, then one job listing per run seen;
        fixed request order keeps the fake-server logs deterministic. The
        pages read become the ETag cache only if the whole poll succeeds, so
        a failed poll keeps the previous cache and pages of vanished runs
        drop out.
        """
        self._poll_pages = {}
        try:
            run_ids: dict[int, None] = {}
            for status in sorted(statuses):
                for run in self.list_runs(repo, status):
                    run_ids.setdefault(run.run_id, None)
            jobs: list[JobRecord] = []
            for run_id in sorted(run_ids):
                for job in self.list_run_jobs(repo, run_id):
                    if job.status in statuses and job_matches_labels(job.requested_labels, runner_labels):
                        jobs.append(job)
            self._pages = self._poll_pages
        finally:
            self._poll_pages = None
        jobs.sort(key=lambda j: (j.created_at, j.job_id))
        return jobs

    def create_registration_token(self, repo: RepoCoordinates) -> RegistrationToken:
        path = f"/repos/{quote(repo.owner)}/{quote(repo.repo)}/actions/runners/registration-token"
        data = self._request("POST", path)
        if not isinstance(data, dict) or "token" not in data or "expires_at" not in data:
            raise ProtocolError(f"POST {path}: body missing token/expires_at")
        try:
            expires = from_rfc3339(str(data["expires_at"]))
        except ValueError as exc:
            raise ProtocolError(f"POST {path}: bad expires_at {data['expires_at']!r}") from exc
        return RegistrationToken(token=str(data["token"]), expires_at=expires)


def _retry_after_seconds(response: HttpResponse) -> float | None:
    value = response.header("retry-after")
    if value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None
