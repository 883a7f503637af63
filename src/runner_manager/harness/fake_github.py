"""Fake GitHub Actions API server.

Serves the three endpoints the manager touches (run listing, per-run job
listing, registration-token minting) plus a private ``/_harness`` surface
the fake runner uses to register, claim and complete jobs. Job status
transitions follow the real lifecycle: queued until a registered runner
claims the job, then in_progress, then completed.

Faults are scripted behavior, not errors: while a fault span is active,
every ``/repos/...`` request answers with the injected status.

Like GitHub, every ``200`` listing carries an ``ETag`` (a digest of the exact
body), and a conditional ``GET`` whose ``If-None-Match`` equals it answers
``304`` with no body. Every ``/repos/...`` answer carries the
``x-ratelimit-*`` headers of a 5,000-request budget per hour of virtual
time, on which only non-``304`` answers draw. The budget is reported, never
enforced: running out of it is a failure class the oracle does not model.
``charged_request_count`` counts the answers that drew on it.

Every ``/repos/...`` request has its bearer token, ``Accept`` and
``X-GitHub-Api-Version`` judged as it arrives (``record_request``); a
mismatch lands in ``header_violations``. The headers themselves are not
kept: with ``keep_request_log`` on, ``request_log`` holds one
``RequestRecord`` per request -- its path, the status answered and the
``If-None-Match`` it sent, the one header the answer depends on.
"""

from __future__ import annotations

import hashlib
import re
import sys
import threading
from dataclasses import dataclass

from ..clock import Clock, SystemClock, to_rfc3339
from ..labels import LabelSet
from .httpserver import FakeHttpServer, Request, Response

OWNER = "biocore"  # the one repository the fake serves
REPO = "unifrac"
PAGE_SIZE = 100

_RUNS_RE = re.compile(r"^/repos/([^/]+)/([^/]+)/actions/runs$")
_JOBS_RE = re.compile(r"^/repos/([^/]+)/([^/]+)/actions/runs/(\d+)/jobs$")
_REG_TOKEN_RE = re.compile(r"^/repos/([^/]+)/([^/]+)/actions/runners/registration-token$")
_RUNNER_RE = re.compile(r"^/_harness/runners/(\d+)(?:/(claim|complete))?$")

RATE_LIMIT = 5000  # primary rate limit per hour, as for a personal access token
RATE_LIMIT_WINDOW = 3600.0
REGISTRATION_TOKEN_TTL = 3600.0
# A run shows the last of these statuses that any of its jobs has.
RUN_STATUS_ORDER = ("completed", "queued", "in_progress")

REQUIRED_HEADERS = {
    "accept": "application/vnd.github+json",
    "x-github-api-version": "2022-11-28",
}


@dataclass
class FakeJob:
    job_id: int
    run_id: int
    labels: list[str]
    created_at: float
    duration: float
    status: str = "queued"  # queued | in_progress | completed
    claimed_by: int | None = None
    ref: str | None = None


@dataclass(slots=True)
class RequestRecord:
    path: str  # interned, as is if_none_match: the same few repeat every poll
    status: int
    if_none_match: str | None


class FakeGitHub:
    """In-memory Actions state plus the HTTP server in front of it."""

    def __init__(
        self,
        expected_token: str | None = None,
        clock: Clock | None = None,
        keep_request_log: bool = False,
    ):
        self.expected_token = expected_token
        self.clock = clock or SystemClock()
        self.keep_request_log = keep_request_log

        self._lock = threading.RLock()
        self.jobs: dict[int, FakeJob] = {}
        self._run_jobs: dict[int, tuple[FakeJob, ...]] = {}  # run id -> its jobs, by job id
        # Run id -> its status, in id order; kept current at every job
        # transition so a listing reads it instead of walking the jobs.
        self._run_status: dict[int, str] = {}
        # Registered runners' labels, by runner id. A runner is busy while a
        # job it claimed is in progress.
        self.runners: dict[int, LabelSet] = {}
        self.issued_registration_tokens: list[str] = []
        self._job_seq = 0
        self._run_seq = 0
        self._runner_seq = 0
        # ("status", code) | ("rate_limit", retry_after) | ("secondary_rate_limit", retry_after)
        self.fault: tuple[str, float] | None = None

        self.api_request_count = 0
        self.charged_request_count = 0  # answers that drew on the rate-limit budget
        self._rate_window = 0  # hour of virtual time the budget below belongs to
        self._rate_used = 0
        self.request_log: list[RequestRecord] = []
        self.header_violations: list[str] = []
        self.on_transition = None  # callback(kind, job) for trace hooks

        self._server = FakeHttpServer(lambda request: _handle(self, request))

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "FakeGitHub":
        self._server.start()
        return self

    def close(self) -> None:
        self._server.close()

    @property
    def base_url(self) -> str:
        return self._server.base_url

    # -- state manipulation (driver / tests) --------------------------------

    def enqueue_job(
        self,
        labels: list[str],
        duration: float = 300.0,
        ref: str | None = None,
        jobs_in_run: int = 1,
    ) -> list[FakeJob]:
        """Create one run containing ``jobs_in_run`` queued jobs."""
        now = self.clock.now()
        with self._lock:
            self._run_seq += 1
            run_id = 1000 + self._run_seq
            created = []
            for _ in range(jobs_in_run):
                self._job_seq += 1
                job = FakeJob(
                    job_id=self._job_seq,
                    run_id=run_id,
                    labels=list(labels),
                    created_at=now,
                    duration=duration,
                    ref=ref,
                )
                self.jobs[job.job_id] = job
                created.append(job)
                self._emit("job_enqueued", job)
            self._run_jobs[run_id] = tuple(created)
            if created:
                self._run_status[run_id] = "queued"
            return created

    def force_complete(self, ref: str) -> None:
        """Scripted completion (e.g. a cancelled workflow), runner or not."""
        with self._lock:
            for job in self.jobs.values():
                if job.ref == ref and job.status != "completed":
                    job.status = "completed"
                    self._refresh_run(job.run_id)
                    self._emit("job_completed", job)

    def set_fault(self, kind: str, value: float) -> None:
        with self._lock:
            self.fault = (kind, value)

    def clear_fault(self) -> None:
        with self._lock:
            self.fault = None

    # -- runner-side operations (HTTP for subprocesses, direct for actors) --

    def register_runner(self, name: str, labels: list[str]) -> int:
        """Register a runner; GitHub shows ``name``, the fake keeps only the labels."""
        with self._lock:
            self._runner_seq += 1
            self.runners[self._runner_seq] = LabelSet(labels)
            return self._runner_seq

    def deregister_runner(self, runner_id: int) -> None:
        with self._lock:
            if self.runners.pop(runner_id, None) is None:
                return
            for job in self.jobs.values():
                if job.claimed_by == runner_id and job.status == "in_progress":
                    # Runner died mid-job: GitHub re-queues the work.
                    job.status = "queued"
                    job.claimed_by = None
                    self._refresh_run(job.run_id)
                    self._emit("job_requeued", job)

    def claim_job(self, runner_id: int) -> FakeJob | None:
        """Oldest queued job whose requested labels fit this runner, if it is idle."""
        with self._lock:
            labels = self.runners.get(runner_id)
            if labels is None:
                return None
            candidates = []
            for job in self.jobs.values():
                if job.claimed_by == runner_id and job.status == "in_progress":
                    return None
                if job.status == "queued" and LabelSet(job.labels).issubset(labels):
                    candidates.append(job)
            if not candidates:
                return None
            job = min(candidates, key=lambda j: (j.created_at, j.job_id))
            job.status = "in_progress"
            job.claimed_by = runner_id
            self._refresh_run(job.run_id)
            self._emit("job_claimed", job)
            return job

    def complete_job(self, runner_id: int, job_id: int) -> bool:
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None or job.status != "in_progress" or job.claimed_by != runner_id:
                return False
            job.status = "completed"
            self._refresh_run(job.run_id)
            self._emit("job_completed", job)
            return True

    def _refresh_run(self, run_id: int) -> None:
        """Re-derive one run's status after one of its jobs moved."""
        rank = max(RUN_STATUS_ORDER.index(job.status) for job in self._run_jobs[run_id])
        self._run_status[run_id] = RUN_STATUS_ORDER[rank]

    def _emit(self, kind: str, job: FakeJob) -> None:
        if self.on_transition is not None:
            self.on_transition(kind, job)

    # -- read models ----------------------------------------------------------

    def runs(self) -> list[tuple[int, str, float]]:
        """Every run's (id, status, created_at), by id. A run's jobs are
        created together, so its first job's ``created_at`` is the run's."""
        with self._lock:
            return [
                (run_id, status, self._run_jobs[run_id][0].created_at)
                for run_id, status in self._run_status.items()
            ]

    def mint_registration_token(self) -> tuple[str, float]:
        with self._lock:
            token = f"REG-{len(self.issued_registration_tokens) + 1:04d}"
            self.issued_registration_tokens.append(token)
            return token, self.clock.now() + REGISTRATION_TOKEN_TTL

    # -- request bookkeeping -----------------------------------------------

    def _rate_limit_headers(self, charged: bool) -> dict[str, str]:
        with self._lock:
            window = int(self.clock.now() // RATE_LIMIT_WINDOW)
            if window != self._rate_window:
                self._rate_window, self._rate_used = window, 0
            if charged:
                self._rate_used += 1
                self.charged_request_count += 1
            return {
                "x-ratelimit-limit": str(RATE_LIMIT),
                "x-ratelimit-remaining": str(max(RATE_LIMIT - self._rate_used, 0)),
                "x-ratelimit-reset": str(int((window + 1) * RATE_LIMIT_WINDOW)),
            }

    def record_request(self, method: str, path: str, headers: dict[str, str], status: int) -> None:
        if path.startswith("/repos/"):
            self.api_request_count += 1
            auth = headers.get("authorization", "")
            expected = f"Bearer {self.expected_token}" if self.expected_token else None
            if expected is not None and auth != expected:
                self.header_violations.append(f"{method} {path}: bad authorization {auth!r}")
            for name, wanted in REQUIRED_HEADERS.items():
                if headers.get(name) != wanted:
                    self.header_violations.append(
                        f"{method} {path}: header {name}={headers.get(name)!r}, want {wanted!r}"
                    )
        if self.keep_request_log:
            etag = headers.get("if-none-match")
            self.request_log.append(RequestRecord(sys.intern(path), status, etag and sys.intern(etag)))


def _handle(gh: FakeGitHub, request: Request) -> Response:
    response = _dispatch(gh, request)
    if request.path.startswith("/repos/"):
        if request.method == "GET" and response.status == 200:
            etag = f'W/"{hashlib.blake2b(response.body, digest_size=16).hexdigest()}"'
            if request.headers.get("if-none-match") == etag:
                response = Response(304)
            response.headers["ETag"] = etag
        response.headers.update(gh._rate_limit_headers(charged=response.status != 304))
    gh.record_request(request.method, request.path, request.headers, response.status)
    return response


def _dispatch(gh: FakeGitHub, request: Request) -> Response:
    method, path, query = request.method, request.path, request.query

    if path.startswith("/repos/"):
        fault = _maybe_fault(gh)
        if fault is not None:
            return fault

    if method == "GET":
        match = _RUNS_RE.match(path)
        if match:
            if not _repo_ok(match):
                return _not_found()
            wanted = query.get("status")
            runs = [run for run in gh.runs() if not wanted or run[1] == wanted]
            entries = [
                {"id": run_id, "status": status, "created_at": to_rfc3339(created)}
                for run_id, status, created in _page(runs, query)
            ]
            return Response.json(200, {"total_count": len(runs), "workflow_runs": entries})

        match = _JOBS_RE.match(path)
        if match:
            if not _repo_ok(match):
                return _not_found()
            run_id = int(match.group(3))
            with gh._lock:
                payload = [
                    {
                        "id": j.job_id,
                        "run_id": j.run_id,
                        "status": j.status,
                        "labels": list(j.labels),
                        "created_at": to_rfc3339(j.created_at),
                    }
                    for j in gh._run_jobs.get(run_id, ())
                ]
            return Response.json(200, {"total_count": len(payload), "jobs": _page(payload, query)})

        return _not_found()

    if method == "POST":
        match = _REG_TOKEN_RE.match(path)
        if match:
            if not _repo_ok(match):
                return _not_found()
            token, expires = gh.mint_registration_token()
            return Response.json(201, {"token": token, "expires_at": to_rfc3339(expires)})

        match = _RUNNER_RE.match(path)
        if match:
            runner_id, action = int(match.group(1)), match.group(2)
            if action == "claim":
                job = gh.claim_job(runner_id)
                if job is None:
                    return Response(204)
                return Response.json(
                    200,
                    {
                        "id": job.job_id,
                        "run_id": job.run_id,
                        "labels": list(job.labels),
                        "duration": job.duration,
                    },
                )
            if action == "complete":
                body = request.json()
                ok = gh.complete_job(runner_id, int(body.get("job_id", 0)))
                return Response.json(200 if ok else 409, {"ok": ok})
            return _not_found()

        if path == "/_harness/runners":
            body = request.json()
            token = str(body.get("token", ""))
            if token not in gh.issued_registration_tokens:
                return Response.json(403, {"message": "bad registration token"})
            runner_id = gh.register_runner(str(body.get("name", "runner")), list(body.get("labels", [])))
            return Response.json(201, {"runner_id": runner_id})

        return _not_found()

    if method == "DELETE":
        match = _RUNNER_RE.match(path)
        if match and match.group(2) is None:
            gh.deregister_runner(int(match.group(1)))
            return Response.json(200, {"ok": True})
        return _not_found()

    return Response.json(405, {"message": f"method {method} not supported"})


def _maybe_fault(gh: FakeGitHub) -> Response | None:
    with gh._lock:
        fault = gh.fault
    if fault is None:
        return None
    kind, value = fault
    if kind == "rate_limit":
        return Response.json(429, {"message": "rate limited"}, {"Retry-After": str(int(value))})
    if kind == "secondary_rate_limit":
        return Response.json(
            403, {"message": "You have exceeded a secondary rate limit."}, {"Retry-After": str(int(value))}
        )
    code = int(value)
    return Response.json(code, {"message": f"injected fault {code}"})


def _repo_ok(match) -> bool:
    return match.group(1) == OWNER and match.group(2) == REPO


def _not_found() -> Response:
    return Response.json(404, {"message": "not found"})


def _page(items: list, query: dict[str, str]) -> list:
    per_page = int(query.get("per_page", PAGE_SIZE))
    page = int(query.get("page", 1))
    start = (page - 1) * per_page
    return items[start : start + per_page]
