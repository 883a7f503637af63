"""Fake GitHub Actions API.

A handler, ``FakeGitHub.handle(Request) -> Response``: a scenario's client
calls it in-process, and ``start()`` serves it over HTTP for the tests of
the wire and the bootstrap subprocess runner. It keeps its lock for those,
since a test may read its state while a served request changes it. It
serves the three endpoints the manager touches (run listing, per-run job
listing, registration-token minting) for the one repository ``OWNER/REPO``,
plus a private ``/_harness`` surface the fake runner uses to register, claim
and complete jobs; a request for another repository gets ``404``. Job
status transitions follow the real lifecycle: queued until a registered
runner claims the job, then in_progress, then completed. A run is one
``FakeRun`` record: its jobs and the status they give it.

The fake is the one record of who runs what. ``runners`` holds each
registered runner's labels by runner name, and ``claims`` the job each busy
runner is working on. As on GitHub, a name is registered once: a second
registration under a live name is refused (``409`` over HTTP). A runner
deregistered mid-job puts its job back in the queue; a scripted
completion frees the runner that held the job.

Faults are scripted behavior, not errors: while a fault span is active,
every ``/repos/...`` request answers with the injected status.

Like GitHub, every ``200`` listing carries an ``ETag`` (a digest of the exact
body), and a conditional ``GET`` whose ``If-None-Match`` equals it answers
``304`` with no body. Every ``/repos/...`` answer carries the
``x-ratelimit-*`` headers of a 5,000-request budget per hour of virtual
time, on which only non-``304`` answers draw. The budget is reported, never
enforced: running out of it is a failure class the oracle does not model.
``charged_request_count`` counts the answers that drew on it.

Every ``/repos/...`` request has its bearer token (against the required
``expected_token``), ``Accept`` and ``X-GitHub-Api-Version`` judged as it
arrives (``record_request``); a mismatch lands in ``header_violations``.
The headers themselves are not kept: with ``keep_request_log`` on,
``request_log`` holds one ``RequestRecord`` per request -- its path, the
status answered and the ``If-None-Match`` it sent, the one header the
answer depends on. Time is read only from the clock the caller gives.
"""

from __future__ import annotations

import hashlib
import re
import sys
import threading
from dataclasses import dataclass

from ..clock import Clock, to_rfc3339
from ..labels import LabelSet
from .httpserver import FakeHttpServer, Request, Response

OWNER = "biocore"  # the one repository the fake serves
REPO = "unifrac"
PAGE_SIZE = 100

_ACTIONS = f"/repos/{OWNER}/{REPO}/actions"
_JOBS_RE = re.compile(rf"^{_ACTIONS}/runs/(\d+)/jobs$")
_RUNNER_RE = re.compile(r"^/_harness/runners/([^/]+)(?:/(claim|complete))?$")

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
    created_at: str  # RFC 3339, rendered once at enqueue: the listings send it
    duration: float
    status: str = "queued"  # queued | in_progress | completed
    ref: str | None = None


@dataclass(slots=True)
class FakeRun:
    jobs: tuple[FakeJob, ...]  # created together, by job id
    status: str = "queued"  # kept current at every job transition


@dataclass(slots=True)
class RequestRecord:
    path: str  # interned, as is if_none_match: the same few repeat every poll
    status: int
    if_none_match: str | None


class FakeGitHub:
    """In-memory Actions state, the handler in front of it, and an HTTP
    server for that handler once ``start`` is called."""

    def __init__(
        self,
        expected_token: str,
        clock: Clock,
        keep_request_log: bool = False,
    ):
        self.expected_token = expected_token
        self.clock = clock
        self.keep_request_log = keep_request_log

        self._lock = threading.RLock()
        self.jobs: dict[int, FakeJob] = {}
        self._runs: dict[int, FakeRun] = {}  # by run id; a run without jobs is not kept
        # Registered runners' labels, and the job each busy runner works on,
        # by runner name.
        self.runners: dict[str, LabelSet] = {}
        self.claims: dict[str, FakeJob] = {}
        self.issued_registration_tokens: list[str] = []
        self._job_seq = 0
        self._run_seq = 0
        # ("status", code) | ("rate_limit", retry_after) | ("secondary_rate_limit", retry_after)
        self.fault: tuple[str, float] | None = None

        self.api_request_count = 0
        self.charged_request_count = 0  # answers that drew on the rate-limit budget
        self._rate_window = 0  # hour of virtual time the budget below belongs to
        self._rate_used = 0
        self.request_log: list[RequestRecord] = []
        self.header_violations: list[str] = []
        self.on_transition = None  # callback(kind, job) for trace hooks

        self._server: FakeHttpServer | None = None  # bound only by start()

    # -- lifecycle ----------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Answer one request: what a scenario's clients call in-process,
        and what ``start``'s server calls for each request off the wire."""
        return _handle(self, request)

    def start(self) -> "FakeGitHub":
        """Serve the fake over HTTP on a loopback port, for tests of the wire."""
        self._server = FakeHttpServer(self.handle)
        self._server.start()
        return self

    def close(self) -> None:
        if self._server is not None:
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
        stamp = to_rfc3339(self.clock.now())  # one string for the run and its jobs
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
                    created_at=stamp,
                    duration=duration,
                    ref=ref,
                )
                self.jobs[job.job_id] = job
                created.append(job)
                self._emit("job_enqueued", job)
            if created:
                self._runs[run_id] = FakeRun(tuple(created))
            return created

    def force_complete(self, ref: str) -> None:
        """Scripted completion (e.g. a cancelled workflow), runner or not."""
        with self._lock:
            self.claims = {name: job for name, job in self.claims.items() if job.ref != ref}
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

    def register_runner(self, name: str, labels: list[str]) -> str | None:
        """Register a runner under ``name``; ``None`` if the name is taken."""
        with self._lock:
            if name in self.runners:
                return None
            self.runners[name] = LabelSet(labels)
            return name

    def deregister_runner(self, name: str) -> bool:
        """Remove a runner; False if none of that name was registered."""
        with self._lock:
            if self.runners.pop(name, None) is None:
                return False
            job = self.claims.pop(name, None)
            if job is not None:
                # Runner died mid-job: GitHub re-queues the work.
                job.status = "queued"
                self._refresh_run(job.run_id)
                self._emit("job_requeued", job)
            return True

    def claim_job(self, name: str) -> FakeJob | None:
        """Oldest queued job whose requested labels fit this runner, if it is
        idle. Job ids follow creation order: the clock never goes backward."""
        with self._lock:
            labels = self.runners.get(name)
            if labels is None or name in self.claims:
                return None
            job = next(
                (j for j in self.jobs.values() if j.status == "queued" and LabelSet(j.labels).issubset(labels)),
                None,
            )
            if job is None:
                return None
            job.status = "in_progress"
            self.claims[name] = job
            self._refresh_run(job.run_id)
            self._emit("job_claimed", job)
            return job

    def complete_job(self, name: str, job_id: int) -> bool:
        """Finish the job runner ``name`` works on; refused for any other job."""
        with self._lock:
            job = self.claims.get(name)
            if job is None or job.job_id != job_id:
                return False
            del self.claims[name]
            job.status = "completed"
            self._refresh_run(job.run_id)
            self._emit("job_completed", job)
            return True

    def _refresh_run(self, run_id: int) -> None:
        """Re-derive one run's status after one of its jobs moved."""
        run = self._runs[run_id]
        run.status = RUN_STATUS_ORDER[max(RUN_STATUS_ORDER.index(job.status) for job in run.jobs)]

    def _emit(self, kind: str, job: FakeJob) -> None:
        if self.on_transition is not None:
            self.on_transition(kind, job)

    # -- read models ----------------------------------------------------------

    def runs(self) -> list[tuple[int, str, str]]:
        """Every run's (id, status, RFC 3339 created_at), by id. A run's jobs
        are created together, so its first job's ``created_at`` is the run's."""
        with self._lock:
            return [(run_id, run.status, run.jobs[0].created_at) for run_id, run in self._runs.items()]

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
            if auth != f"Bearer {self.expected_token}":
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
        if path == f"{_ACTIONS}/runs":
            wanted = query.get("status")
            runs = [run for run in gh.runs() if not wanted or run[1] == wanted]
            entries = [
                {"id": run_id, "status": status, "created_at": created}
                for run_id, status, created in _page(runs, query)
            ]
            return Response.json(200, {"total_count": len(runs), "workflow_runs": entries})

        match = _JOBS_RE.match(path)
        if match:
            with gh._lock:
                run = gh._runs.get(int(match.group(1)))
                payload = [
                    {
                        "id": j.job_id,
                        "run_id": j.run_id,
                        "status": j.status,
                        "labels": list(j.labels),
                        "created_at": j.created_at,
                    }
                    for j in (run.jobs if run else ())
                ]
            return Response.json(200, {"total_count": len(payload), "jobs": _page(payload, query)})

        return _not_found()

    if method == "POST":
        if path == f"{_ACTIONS}/runners/registration-token":
            token, expires = gh.mint_registration_token()
            return Response.json(201, {"token": token, "expires_at": to_rfc3339(expires)})

        match = _RUNNER_RE.match(path)
        if match:
            name, action = match.groups()
            if action == "claim":
                job = gh.claim_job(name)
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
                ok = gh.complete_job(name, int(body.get("job_id", 0)))
                return Response.json(200 if ok else 409, {"ok": ok})
            return _not_found()

        if path == "/_harness/runners":
            body = request.json()
            token = str(body.get("token", ""))
            if token not in gh.issued_registration_tokens:
                return Response.json(403, {"message": "bad registration token"})
            name = str(body.get("name", "runner"))
            if gh.register_runner(name, list(body.get("labels", []))) is None:
                return Response.json(409, {"message": f"a runner named {name!r} is already registered"})
            return Response.json(201, {"name": name})

        return _not_found()

    if method == "DELETE":
        match = _RUNNER_RE.match(path)
        if match and match.group(2) is None:
            ok = gh.deregister_runner(match.group(1))
            return Response.json(200 if ok else 404, {"ok": ok})
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


def _not_found() -> Response:
    return Response.json(404, {"message": "not found"})


def _page(items: list, query: dict[str, str]) -> list:
    per_page = int(query.get("per_page", PAGE_SIZE))
    page = int(query.get("page", 1))
    start = (page - 1) * per_page
    return items[start : start + per_page]
