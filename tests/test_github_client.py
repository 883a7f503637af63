import hashlib
import json
import random
import threading
from contextlib import closing

import pytest
from hypothesis import given
from hypothesis import strategies as st

from runner_manager.config import RepoCoordinates
from runner_manager.errors import CredentialError, ProtocolError, RateLimitedError, TransientError
from runner_manager.github import BackoffState, GitHubClient, RegistrationToken, execute_with_backoff
from runner_manager.harness.httpserver import Response
from runner_manager.labels import LabelSet
from runner_manager.status import HttpServer
from runner_manager.transport import HttpTransport

from conftest import TEST_TOKEN

REPO = RepoCoordinates("biocore", "unifrac")
RUNNER_LABELS = LabelSet(["self-hosted", "linux-gpu-cuda", "x64"])
ALL = 1_000_000  # a limit no test reaches, so the listing is never capped


@pytest.fixture
def serve(clock):
    """``serve(handle)`` starts an HttpServer answering with ``handle``
    and returns a GitHubClient bound to it; both close after the test."""
    opened = []

    def build(handle):
        server = HttpServer(handle)
        server.start()
        client = GitHubClient(server.base_url, TEST_TOKEN, clock=clock)
        opened.append((server, client))
        return client

    yield build
    for server, client in opened:
        client.close()
        server.close()


def test_label_filtering_returns_only_eligible_jobs(fake_github, gh_client):
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    fake_github.enqueue_job(["ubuntu-latest"])
    jobs = gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert len(jobs) == 2
    assert all(job.status == "queued" for job in jobs)


def test_zero_runs_gives_empty_list(gh_client):
    assert gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False) == []


def test_pagination_across_runs(fake_github, gh_client, clock):
    # 150 matching queued jobs spread over 150 runs: the run listing paginates.
    for i in range(150):
        clock.advance(1)
        fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    jobs = gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert len(jobs) == 150
    assert [j.job_id for j in jobs] == list(range(1, 151))


def test_pagination_within_one_run(fake_github, gh_client):
    # One run holding 150 jobs: the per-run job listing paginates.
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"], jobs_in_run=150)
    jobs = gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert len(jobs) == 150


def test_repeated_listing_is_pure(fake_github, gh_client):
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    first = gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    second = gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert first == second


def test_every_request_carries_required_headers(fake_github, gh_client):
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    gh_client.create_registration_token(REPO)
    assert fake_github.api_request_count >= 4
    assert fake_github.header_violations == []
    # The fake judges the headers of every /repos/ request on arrival and
    # keeps no copy; each logged /repos/ request was one of those judged.
    assert fake_github.api_request_count == sum(r.path.startswith("/repos/") for r in fake_github.request_log)


def test_wrong_token_flagged_by_fake(fake_github, clock):
    with closing(GitHubClient(fake_github.base_url, "wrong-token", clock=clock)) as client:
        client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert fake_github.header_violations


_GOOD_HEADERS = {
    "Authorization": f"Bearer {TEST_TOKEN}",
    "Accept": "application/vnd.github+json",
    "X-GitHub-Api-Version": "2022-11-28",
}


@pytest.mark.parametrize(
    "name, value",
    [("X-GitHub-Api-Version", None), ("Accept", "application/json")],
    ids=["no-api-version", "wrong-accept"],
)
def test_missing_or_wrong_header_flagged_by_fake(fake_github, name, value):
    headers = {k: v for k, v in _GOOD_HEADERS.items() if k != name}
    if value is not None:
        headers[name] = value
    with closing(HttpTransport(fake_github.base_url)) as transport:
        path = "/repos/biocore/unifrac/actions/runs"
        assert transport.request("GET", path, _GOOD_HEADERS).status == 200
        assert fake_github.header_violations == []
        assert transport.request("GET", path, headers).status == 200
    assert len(fake_github.header_violations) == 1
    assert f"header {name.lower()}={value!r}" in fake_github.header_violations[0]


def test_401_classified_as_credential_error(fake_github, gh_client):
    fake_github.set_fault("status", 401)
    with pytest.raises(CredentialError):
        gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)


def test_429_carries_retry_after(fake_github, gh_client):
    fake_github.set_fault("rate_limit", 120)
    with pytest.raises(RateLimitedError) as excinfo:
        gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert excinfo.value.retry_after == 120.0


def test_5xx_classified_transient(fake_github, gh_client):
    fake_github.set_fault("status", 503)
    with pytest.raises(TransientError):
        gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)


def test_registration_token_echoes_fixture(clock):
    from runner_manager.harness.fake_github import FakeGitHub

    gh = FakeGitHub(expected_token=TEST_TOKEN, clock=clock).start()
    try:
        with closing(GitHubClient(gh.base_url, TEST_TOKEN, clock=clock)) as client:
            token = client.create_registration_token(REPO)
        assert token == RegistrationToken(token="REG-0001", expires_at=clock.now() + 3600)
        assert gh.header_violations == []
    finally:
        gh.close()


def test_registration_403_is_credential_error_without_retry(fake_github, gh_client):
    fake_github.set_fault("status", 403)
    with pytest.raises(CredentialError):
        gh_client.create_registration_token(REPO)
    token_posts = [r for r in fake_github.request_log if "registration-token" in r.path]
    assert len(token_posts) == 1


def test_missing_expires_at_is_protocol_error(serve):
    client = serve(lambda request: Response.json(201, {"token": "REG-x"}))
    with pytest.raises(ProtocolError):
        client.create_registration_token(REPO)


def test_400_listing_is_protocol_error_with_its_status(serve):
    # A 400 is an error answer, not a listing that lacks its array.
    client = serve(lambda request: Response.json(400, {"message": "Bad Request"}))
    with pytest.raises(ProtocolError) as excinfo:
        client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert excinfo.value.status == 400


def test_non_json_body_is_protocol_error(serve):
    client = serve(lambda request: Response(200, b"<html>nope</html>", {"content-type": "text/html"}))
    with pytest.raises(ProtocolError):
        client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)


def test_unknown_repo_is_distinct_from_transient(fake_github, gh_client):
    with pytest.raises(CredentialError):
        gh_client.list_outstanding_jobs(
            RepoCoordinates("nobody", "nothing"), RUNNER_LABELS, ALL, in_progress=True, until_busy=False
        )


def test_403_with_retry_after_is_secondary_rate_limit(fake_github, gh_client):
    fake_github.set_fault("secondary_rate_limit", 60)
    with pytest.raises(RateLimitedError) as excinfo:
        gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert (excinfo.value.status, excinfo.value.retry_after) == (403, 60.0)


# -- conditional requests -------------------------------------------------


def _statuses_since(fake_github, start: int) -> list[int]:
    return [r.status for r in fake_github.request_log[start:]]


def test_unchanged_poll_is_answered_304_with_identical_jobs(fake_github, gh_client):
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    first = gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    mark = len(fake_github.request_log)
    second = gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert second == first and len(first) == 1
    assert _statuses_since(fake_github, 0) == [200, 200, 200, 304, 304, 304]
    for record in fake_github.request_log[mark:]:
        assert record.if_none_match.startswith('W/"')
    # A 304 is still a request, and still carries every required header,
    # but only the three 200s draw on the rate limit.
    assert fake_github.api_request_count == 6
    assert fake_github.charged_request_count == 3
    assert fake_github.header_violations == []


def test_changed_page_is_fetched_in_full_and_replaces_its_entry(fake_github, gh_client):
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    queued_runs = next(path for path in gh_client._pages if "status=queued" in path)
    old_etag = gh_client._pages[queued_runs][0]
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    mark = len(fake_github.request_log)
    jobs = gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert [j.job_id for j in jobs] == [1, 2]
    # in_progress runs and run 1's jobs are unchanged; the queued listing and
    # the new run's jobs are not.
    assert _statuses_since(fake_github, mark) == [304, 200, 304, 200]
    new_etag = gh_client._pages[queued_runs][0]
    assert new_etag != old_etag
    assert gh_client._pages[queued_runs][1]["total_count"] == 2
    mark = len(fake_github.request_log)
    assert gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False) == jobs
    assert _statuses_since(fake_github, mark) == [304, 304, 304, 304]


def test_pages_of_vanished_runs_drop_out(fake_github, gh_client):
    job = fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"], ref="w")[0]
    gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert any(f"/runs/{job.run_id}/jobs" in path for path in gh_client._pages)
    fake_github.force_complete("w")
    assert gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False) == []
    assert len(gh_client._pages) == 2
    assert not any("/jobs" in path for path in gh_client._pages)


def test_registration_token_post_is_never_conditional(serve):
    # A server that tags every answer, the POST's too.
    seen = []

    def handle(request):
        seen.append((request.method, request.headers.get("if-none-match")))
        if request.method == "POST":
            body = {"token": "REG-x", "expires_at": "2024-01-01T00:00:00Z"}
            return Response.json(201, body, {"ETag": 'W/"post"'})
        return Response.json(200, {"total_count": 0, "workflow_runs": []}, {"ETag": 'W/"get"'})

    client = serve(handle)
    client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    client.create_registration_token(REPO)
    client.create_registration_token(REPO)
    client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert seen == [("GET", None)] * 2 + [("POST", None)] * 2 + [("GET", 'W/"get"')] * 2


def test_304_for_an_unconditional_request_is_protocol_error(serve):
    client = serve(lambda request: Response(304))
    with pytest.raises(ProtocolError):
        client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)


def test_server_without_etags_gets_plain_requests(serve):
    seen = []

    def handle(request):
        seen.append(request.headers.get("if-none-match"))
        return Response.json(200, {"total_count": 0, "workflow_runs": []})

    client = serve(handle)
    for _ in range(2):
        assert client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False) == []
    assert seen == [None] * 4
    assert client.rate_limit_remaining is None


def test_client_keeps_the_last_rate_limit_remaining(fake_github, gh_client):
    gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert gh_client.rate_limit_remaining == 4998
    gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert gh_client.rate_limit_remaining == 4998  # 304s are not charged
    gh_client.create_registration_token(REPO)
    assert gh_client.rate_limit_remaining == 4997


@pytest.mark.parametrize(
    "labels", [[1], ["self-hosted", None], "abc", {"self-hosted": True}], ids=["int", "null", "string", "mapping"]
)
def test_job_labels_that_are_not_a_list_of_strings_are_protocol_error(serve, labels):
    job = {"id": 1, "run_id": 7, "status": "queued", "labels": labels, "created_at": "2024-01-01T00:00:00Z"}
    client = serve(lambda request: Response.json(200, {"total_count": 1, "jobs": [job]}))
    with pytest.raises(ProtocolError):
        client.list_run_jobs(REPO, 7)


@pytest.mark.parametrize(
    "body, call",
    [
        ({"total_count": 0}, lambda c: c.list_runs(REPO, "queued")),
        ({"total_count": 1, "jobs": {"id": 1}}, lambda c: c.list_run_jobs(REPO, 7)),
        ({"total_count": 1, "workflow_runs": [{"status": "queued"}]}, lambda c: c.list_runs(REPO, "queued")),
        ({"total_count": 1, "workflow_runs": [{"id": "seven"}]}, lambda c: c.list_runs(REPO, "queued")),
        ({"total_count": 1, "jobs": [{"status": "queued", "labels": []}]}, lambda c: c.list_run_jobs(REPO, 7)),
        ({"total_count": 1, "jobs": [{"id": 1, "labels": []}]}, lambda c: c.list_run_jobs(REPO, 7)),
        ({"token": "REG-x", "expires_at": "next tuesday"}, lambda c: c.create_registration_token(REPO)),
    ],
    ids=["runs-without-array", "jobs-not-an-array", "run-without-id", "run-id-not-an-integer", "job-without-id",
         "job-without-status", "unparseable-expires-at"],
)
def test_malformed_answer_is_protocol_error(serve, body, call):
    client = serve(lambda request: Response.json(200, body))
    with pytest.raises(ProtocolError):
        call(client)


@pytest.mark.parametrize(
    "status, headers",
    [
        (429, {"Retry-After": "0"}),
        (429, {"Retry-After": "-5"}),
        (429, {"Retry-After": "nan"}),
        (429, {"Retry-After": "inf"}),
        (403, {"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": "nan"}),
        (403, {"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": "inf"}),
        (429, {}),
        (429, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
    ],
    ids=["retry-after-0", "retry-after-negative", "retry-after-nan", "retry-after-inf", "reset-nan", "reset-inf",
         "no-retry-after", "retry-after-http-date"],
)
def test_unusable_server_wait_falls_back_to_the_schedule(serve, clock, status, headers):
    attempts = []

    def handle(request):
        attempts.append(clock.now())
        if len(attempts) <= 50:  # bounded, so a client that never waits still ends
            return Response.json(status, {"message": "limited"}, headers)
        return Response.json(200, {"total_count": 0, "workflow_runs": []})

    client = serve(handle)
    state = BackoffState()
    with pytest.raises(RateLimitedError):
        execute_with_backoff(
            lambda: client.list_runs(REPO, "queued"), state, clock, window_end=60.0, interrupt=threading.Event()
        )
    assert attempts == [0.0]
    assert state.next_allowed_attempt == 60.0  # the one-minute wait, as with no header


def test_run_listing_stops_after_ten_full_pages(serve, caplog):
    # A misbehaving server answers full pages for its first 50 requests.
    pages = []
    full = [{"id": i, "status": "queued"} for i in range(100)]

    def handle(request):
        pages.append(int(request.query["page"]))
        runs = full if len(pages) <= 50 else []
        return Response.json(200, {"total_count": 5000, "workflow_runs": runs})

    client = serve(handle)
    with caplog.at_level("WARNING", logger="runner_manager.github"):
        runs = client.list_runs(REPO, "queued")
    assert pages == list(range(1, 11))
    assert len(runs) == 1000
    assert len([r for r in caplog.records if r.levelname == "WARNING"]) == 1


# -- stopping at a cap ------------------------------------------------------

MATCHING = ["self-hosted", "linux-gpu-cuda"]


def _paths_since(fake_github, start: int) -> list[str]:
    return [r.path for r in fake_github.request_log[start:]]


def _jobs_path(run_id: int) -> str:
    return f"/repos/biocore/unifrac/actions/runs/{run_id}/jobs"


def test_cap_stops_listing_runs_once_enough_matching_jobs_are_found(fake_github, gh_client):
    foreign = fake_github.enqueue_job(["ubuntu-latest"])[0]
    matching = [fake_github.enqueue_job(MATCHING)[0] for _ in range(6)]
    jobs = gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, 2, in_progress=True, until_busy=False)
    assert [j.job_id for j in jobs] == [matching[0].job_id, matching[1].job_id]
    runs_path = "/repos/biocore/unifrac/actions/runs"
    assert _paths_since(fake_github, 0) == [
        runs_path,
        runs_path,
        _jobs_path(foreign.run_id),
        _jobs_path(matching[0].run_id),
        _jobs_path(matching[1].run_id),
    ]


def test_below_the_cap_every_run_is_read_and_the_result_is_uncapped(fake_github, gh_client):
    fake_github.enqueue_job(["ubuntu-latest"])
    for _ in range(3):
        fake_github.enqueue_job(MATCHING)
    full = gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    uncapped_paths = _paths_since(fake_github, 0)
    mark = len(fake_github.request_log)
    capped = gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, 4, in_progress=True, until_busy=False)
    assert capped == full and len(full) == 3
    assert sorted(_paths_since(fake_github, mark)) == sorted(uncapped_paths)
    assert len(uncapped_paths) == 2 + 4


def test_at_saturation_a_barren_run_is_not_read_again(fake_github, gh_client):
    foreign = fake_github.enqueue_job(["ubuntu-latest"])[0]
    matching = [fake_github.enqueue_job(MATCHING)[0] for _ in range(3)]
    gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, 2, in_progress=True, until_busy=False)
    mark = len(fake_github.request_log)
    jobs = gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, 2, in_progress=True, until_busy=False)
    assert [j.job_id for j in jobs] == [matching[0].job_id, matching[1].job_id]
    runs_path = "/repos/biocore/unifrac/actions/runs"
    assert _paths_since(fake_github, mark) == [
        runs_path,
        runs_path,
        _jobs_path(matching[0].run_id),
        _jobs_path(matching[1].run_id),
    ]
    assert gh_client._barren == {foreign.run_id}


def test_a_listed_run_left_unread_keeps_its_etag(fake_github, gh_client):
    matching = [fake_github.enqueue_job(MATCHING)[0] for _ in range(3)]
    gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, 1, in_progress=True, until_busy=False)
    assert all(any(_jobs_path(job.run_id) in path for path in gh_client._pages) for job in matching)
    mark = len(fake_github.request_log)
    jobs = gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert [j.job_id for j in jobs] == [job.job_id for job in matching]
    assert _paths_since(fake_github, mark)[2:] == [_jobs_path(job.run_id) for job in matching]
    assert _statuses_since(fake_github, mark) == [304] * 5


def test_failed_poll_leaves_the_cache_as_it_was(fake_github, gh_client):
    fake_github.enqueue_job(MATCHING)
    gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    before = dict(gh_client._pages)

    fake_github.set_fault("status", 503)
    with pytest.raises(TransientError):
        gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert gh_client._pages == before


def test_failed_poll_leaves_the_barren_runs_as_they_were(fake_github, gh_client, monkeypatch):
    foreign = fake_github.enqueue_job(["ubuntu-latest"])[0]
    fake_github.enqueue_job(MATCHING)
    gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    # A new barren run is listed, then the first job listing of the poll fails.
    fake_github.enqueue_job(["ubuntu-latest"])
    request = gh_client._transport.request

    def refuse_job_listings(method, url, headers, body=None):
        if "/jobs" in url:
            return Response(503, b'{"message": "Unavailable"}')
        return request(method, url, headers, body)

    monkeypatch.setattr(gh_client._transport, "request", refuse_job_listings)
    with pytest.raises(TransientError):
        gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert gh_client._barren == {foreign.run_id}


def test_failed_poll_keeps_every_page_and_flag_it_found(fake_github, gh_client, monkeypatch):
    foreign = fake_github.enqueue_job(["ubuntu-latest"])[0]
    matching = fake_github.enqueue_job(MATCHING)[0]
    gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    before = dict(gh_client._pages)

    fake_github.set_fault("status", 503)
    with pytest.raises(TransientError):
        gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert gh_client._pages == before
    fake_github.clear_fault()

    # The changed queued listing and a new barren run are read, then the old
    # barren run's listing fails.
    added = fake_github.enqueue_job(["ubuntu-latest"])[0]
    request = gh_client._transport.request

    def refuse_old_barren_run(method, url, headers, body=None):
        if _jobs_path(foreign.run_id) in url:
            return Response(503, b'{"message": "Unavailable"}')
        return request(method, url, headers, body)

    with monkeypatch.context() as patch:
        patch.setattr(gh_client._transport, "request", refuse_old_barren_run)
        with pytest.raises(TransientError):
            gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert before.keys() <= gh_client._pages.keys()
    assert gh_client._barren == {foreign.run_id, added.run_id}
    mark = len(fake_github.request_log)
    assert len(gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)) == 1
    assert _statuses_since(fake_github, mark) == [304] * 5

    # A runner claims the matching job, so its run moves to in_progress. The
    # changed in_progress listing and the run's jobs are read, then the
    # queued listing fails.
    runner = fake_github.register_runner("runner-0", ["self-hosted", "linux-gpu-cuda", "x64"])
    assert fake_github.claim_job(runner) is matching
    before = dict(gh_client._pages)

    def refuse_queued_listing(method, url, headers, body=None):
        if "status=queued" in url:
            return Response(503, b'{"message": "Unavailable"}')
        return request(method, url, headers, body)

    with monkeypatch.context() as patch:
        patch.setattr(gh_client._transport, "request", refuse_queued_listing)
        with pytest.raises(TransientError):
            gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert gh_client._pages.keys() == before.keys()
    assert {path for path, page in gh_client._pages.items() if page != before[path]} == {
        "/repos/biocore/unifrac/actions/runs?status=in_progress&per_page=100&page=1",
        f"{_jobs_path(matching.run_id)}?per_page=100&page=1",
    }
    assert gh_client._barren == {foreign.run_id, added.run_id}
    mark = len(fake_github.request_log)
    assert len(gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)) == 1
    assert _statuses_since(fake_github, mark) == [304, 304, 200, 304, 304]


def test_a_run_is_read_in_full_even_past_the_cap(fake_github, gh_client):
    fake_github.enqueue_job(MATCHING, jobs_in_run=3)
    fake_github.enqueue_job(MATCHING)
    jobs = gh_client.list_outstanding_jobs(REPO, RUNNER_LABELS, 2, in_progress=True, until_busy=False)
    assert [j.job_id for j in jobs] == [1, 2, 3]
    assert len(fake_github.request_log) == 3


class _InMemoryGitHub:
    """A transport answering the two listings from a dict of runs, without
    sockets: run id -> (run status, [(job status, labels), ...])."""

    def __init__(self, runs: dict[int, tuple[str, list[tuple[str, list[str]]]]]):
        self.runs = runs

    def request(self, method, url, headers, body=None):
        path, _, query = url.partition("?")
        params = dict(part.split("=") for part in query.split("&"))
        if path.endswith("/jobs"):
            run_id = int(path.split("/")[-2])
            created = "2024-01-01T00:00:00Z"
            jobs = [
                {"id": run_id * 100 + i, "run_id": run_id, "status": status, "labels": labels, "created_at": created}
                for i, (status, labels) in enumerate(self.runs[run_id][1])
            ]
            payload = {"total_count": len(jobs), "jobs": jobs}
        else:
            runs = [
                {"id": run_id, "status": status}
                for run_id, (status, _) in self.runs.items()
                if status == params["status"]
            ]
            payload = {"total_count": len(runs), "workflow_runs": runs}
        assert params["page"] == "1"
        return Response(200, json.dumps(payload).encode())


_STATUS = st.sampled_from(["queued", "in_progress", "completed"])
_LABELS = st.sampled_from([MATCHING, ["self-hosted"], ["ubuntu-latest"], ["self-hosted", "windows-arm"]])
_RUNS = st.dictionaries(
    st.integers(1, 10_000),
    st.tuples(_STATUS, st.lists(st.tuples(_STATUS, _LABELS), max_size=4)),
    max_size=12,
)


def _assert_keeps_what_the_demand_rule_reads(capped, full, k):
    assert min(len(capped), k) == min(len(full), k)
    assert set(capped) <= set(full)
    if len(full) < k:
        assert set(capped) == set(full)


@given(runs=_RUNS, k=st.integers(1, 5))
def test_capped_listing_keeps_what_the_demand_rule_reads(runs, k):
    client = GitHubClient("http://github.invalid", TEST_TOKEN, transport=_InMemoryGitHub(runs))
    full = client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    capped = client.list_outstanding_jobs(REPO, RUNNER_LABELS, k, in_progress=True, until_busy=False)
    _assert_keeps_what_the_demand_rule_reads(capped, full, k)


class _TaggingInMemoryGitHub(_InMemoryGitHub):
    """Also tags every answer with an ETag of its body, answers ``304`` when
    the request sends that tag back, and logs (path, status), a run
    listing's path with its ``status`` query. The request
    numbered ``fail_at`` (from 1) is answered ``503``."""

    def __init__(self, runs):
        super().__init__(runs)
        self.log: list[tuple[str, int]] = []
        self.fail_at: int | None = None

    def request(self, method, url, headers, body=None):
        if self.fail_at is not None:
            self.fail_at -= 1
            if self.fail_at == 0:
                return Response(503, b"{}")
        answer = super().request(method, url, headers, body)
        etag = f'W/"{hashlib.sha256(answer.body).hexdigest()[:16]}"'
        status = 304 if headers.get("If-None-Match") == etag else 200
        path, _, query = url.partition("?")
        listing = query.partition("&")[0] if query.startswith("status=") else None
        self.log.append((f"{path}?{listing}" if listing else path, status))
        return Response(status, answer.body if status == 200 else b"", {"etag": etag})


def test_a_barren_run_that_gains_a_matching_job_is_read_below_the_cap():
    github = _TaggingInMemoryGitHub(
        {1: ("queued", [("queued", ["ubuntu-latest"])]), 2: ("queued", [("queued", MATCHING)])}
    )
    client = GitHubClient("http://github.invalid", TEST_TOKEN, transport=github)
    client.list_outstanding_jobs(REPO, RUNNER_LABELS, 2, in_progress=True, until_busy=False)
    assert client._barren == {1}
    github.runs[1][1].append(("queued", MATCHING))
    github.log.clear()
    jobs = client.list_outstanding_jobs(REPO, RUNNER_LABELS, 2, in_progress=True, until_busy=False)
    assert {j.job_id for j in jobs} == {101, 200}
    assert github.log[2:] == [(_jobs_path(2), 304), (_jobs_path(1), 200)]
    assert client._barren == set()


def _listing(status: str) -> str:
    return f"/repos/biocore/unifrac/actions/runs?status={status}"


def _tagging_client(runs):
    github = _TaggingInMemoryGitHub(runs)
    return github, GitHubClient("http://github.invalid", TEST_TOKEN, transport=github)


def test_a_poll_saturated_by_in_progress_runs_never_lists_queued_runs():
    github, client = _tagging_client(
        {
            1: ("queued", [("queued", MATCHING)]),
            2: ("in_progress", [("in_progress", MATCHING)]),
            3: ("in_progress", [("in_progress", MATCHING), ("queued", MATCHING)]),
            4: ("in_progress", [("in_progress", MATCHING)]),
        }
    )
    jobs = client.list_outstanding_jobs(REPO, RUNNER_LABELS, 3, in_progress=True, until_busy=False)
    assert [j.job_id for j in jobs] == [200, 300, 301]
    assert github.log == [(_listing("in_progress"), 200), (_jobs_path(2), 200), (_jobs_path(3), 200)]


def test_a_poll_until_busy_stops_at_the_first_counted_job_in_progress():
    # Run 1 is in progress for a hosted job and holds a queued matching one;
    # runs 2 and 3 each hold a matching job in progress; run 4 is queued.
    # Until busy, the poll reads the in-progress listing, run 1 and run 2,
    # where it meets a counted job in progress, and no queued listing. The
    # runs it skipped keep their pages, so a full poll reads them as 304s.
    github, client = _tagging_client(
        {
            1: ("in_progress", [("in_progress", ["ubuntu-latest"]), ("queued", MATCHING)]),
            2: ("in_progress", [("in_progress", MATCHING)]),
            3: ("in_progress", [("in_progress", MATCHING)]),
            4: ("queued", [("queued", MATCHING)]),
        }
    )
    assert len(client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)) == 4
    github.log.clear()
    jobs = client.list_outstanding_jobs(REPO, RUNNER_LABELS, 4, in_progress=True, until_busy=True)
    assert [(job.job_id, job.status) for job in jobs] == [(101, "queued"), (200, "in_progress")]
    assert github.log == [(_listing("in_progress"), 304), (_jobs_path(1), 304), (_jobs_path(2), 304)]
    github.log.clear()
    assert len(client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)) == 4
    assert github.log == [
        (_listing("in_progress"), 304),
        (_jobs_path(1), 304),
        (_jobs_path(2), 304),
        (_jobs_path(3), 304),
        (_listing("queued"), 304),
        (_jobs_path(4), 304),
    ]


def test_below_the_cap_both_listings_and_every_run_are_read():
    runs = {
        1: ("queued", [("queued", MATCHING)]),
        2: ("in_progress", [("in_progress", MATCHING), ("queued", ["ubuntu-latest"])]),
        3: ("queued", [("queued", ["ubuntu-latest"])]),
        4: ("in_progress", [("in_progress", ["ubuntu-latest"])]),
    }
    github, client = _tagging_client(runs)
    jobs = client.list_outstanding_jobs(REPO, RUNNER_LABELS, 3, in_progress=True, until_busy=False)
    assert jobs == _uncapped(runs) and [j.job_id for j in jobs] == [200, 100]
    assert [path for path, _ in github.log] == [
        _listing("in_progress"),
        _jobs_path(2),
        _jobs_path(4),
        _listing("queued"),
        _jobs_path(1),
        _jobs_path(3),
    ]


def test_a_barren_in_progress_run_is_read_after_the_queued_listing():
    github, client = _tagging_client(
        {
            1: ("in_progress", [("in_progress", ["ubuntu-latest"])]),
            2: ("in_progress", [("in_progress", MATCHING)]),
            3: ("queued", [("queued", MATCHING)]),
        }
    )
    client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert client._barren == {1}
    github.log.clear()
    assert len(client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)) == 2
    assert github.log == [
        (_listing("in_progress"), 304),
        (_jobs_path(2), 304),
        (_listing("queued"), 304),
        (_jobs_path(3), 304),
        (_jobs_path(1), 304),
    ]


def test_a_queued_run_keeps_its_page_while_the_queued_listing_goes_unread():
    github, client = _tagging_client(
        {1: ("in_progress", [("in_progress", MATCHING)]), 2: ("queued", [("queued", MATCHING)])}
    )
    client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    for _ in range(3):
        github.log.clear()
        assert len(client.list_outstanding_jobs(REPO, RUNNER_LABELS, 1, in_progress=True, until_busy=False)) == 1
        assert github.log == [(_listing("in_progress"), 304), (_jobs_path(1), 304)]
    github.log.clear()
    assert len(client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)) == 2
    assert github.log[2:] == [(_listing("queued"), 304), (_jobs_path(2), 304)]


def test_a_barren_in_progress_run_keeps_its_page_and_flag_while_its_listing_goes_unread():
    # Run 1 holds only a hosted job, in progress. Polls that skip the
    # in-progress listing (at 0 replicas) read the queued listing and its
    # runs alone, and keep run 1's page and barren flag: the next poll that
    # lists in-progress runs is answered 304 throughout and reads run 1 last.
    github, client = _tagging_client(
        {1: ("in_progress", [("in_progress", ["ubuntu-latest"])]), 2: ("queued", [("queued", MATCHING)])}
    )
    client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    for _ in range(3):
        github.log.clear()
        assert len(client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=False, until_busy=False)) == 1
        assert github.log == [(_listing("queued"), 304), (_jobs_path(2), 304)]
        assert (_cached_runs(client), client._barren) == ({1, 2}, {1})
    github.log.clear()
    assert len(client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)) == 1
    assert github.log == [
        (_listing("in_progress"), 304),
        (_listing("queued"), 304),
        (_jobs_path(2), 304),
        (_jobs_path(1), 304),
    ]


def _cached_runs(client) -> set[int]:
    return {int(path.split("/")[-2]) for path in client._pages if path.partition("?")[0].endswith("/jobs")}


def test_a_run_absent_from_every_latest_listing_drops_its_pages_and_flag():
    github, client = _tagging_client(
        {1: ("in_progress", [("in_progress", MATCHING)]), 2: ("queued", [("queued", ["ubuntu-latest"])])}
    )
    client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert (_cached_runs(client), client._barren) == ({1, 2}, {2})
    # Run 2 ends, but only a read of the queued listing can show it.
    del github.runs[2]
    client.list_outstanding_jobs(REPO, RUNNER_LABELS, 1, in_progress=True, until_busy=False)
    assert (_cached_runs(client), client._barren) == ({1, 2}, {2})
    client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    assert (_cached_runs(client), client._barren) == ({1}, set())


def test_saturated_polls_keep_the_cache_within_the_latest_listings():
    # In-progress runs come and go for 50 polls, each saturated by them, so
    # the queued listing is read by the first poll only.
    github, client = _tagging_client({run_id: ("queued", [("queued", MATCHING)]) for run_id in range(1, 6)})
    client.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)
    queued = set(github.runs)
    rng = random.Random(7)
    next_id = 100
    for _ in range(50):
        for run_id, (status, _) in list(github.runs.items()):
            if status == "in_progress" and rng.random() < 0.5:
                del github.runs[run_id]
        for labels in (MATCHING, ["ubuntu-latest"], MATCHING):
            github.runs[next_id] = ("in_progress", [("in_progress", labels)])
            next_id += 1
        github.log.clear()
        assert len(client.list_outstanding_jobs(REPO, RUNNER_LABELS, 2, in_progress=True, until_busy=False)) == 2
        assert _listing("queued") not in {path for path, _ in github.log}
        in_progress = {run_id for run_id, (status, _) in github.runs.items() if status == "in_progress"}
        assert _cached_runs(client) | client._barren <= in_progress | queued
    assert queued <= _cached_runs(client)


_JOBS = st.lists(st.tuples(_STATUS, _LABELS), max_size=4)
_FIRST_CAP = st.just(ALL) | st.integers(1, 5)


def _mutate(runs, added, data):
    """``runs`` with each run kept, gone, with a matching job added, or
    redrawn, plus the runs of ``added`` that are new: barren flags and
    cached pages go stale."""
    mutated = {}
    for run_id, (status, jobs) in runs.items():
        mutation = data.draw(st.sampled_from(["keep", "drop", "gain", "redraw"]))
        if mutation == "keep":
            mutated[run_id] = (status, jobs)
        elif mutation == "gain":
            mutated[run_id] = (status, jobs + [("queued", MATCHING)])
        elif mutation == "redraw":
            mutated[run_id] = (data.draw(_STATUS), data.draw(_JOBS))
    mutated.update((run_id, run) for run_id, run in added.items() if run_id not in runs)
    return mutated


def _uncapped(runs):
    fresh = GitHubClient("http://github.invalid", TEST_TOKEN, transport=_InMemoryGitHub(runs))
    return fresh.list_outstanding_jobs(REPO, RUNNER_LABELS, ALL, in_progress=True, until_busy=False)


@given(runs=_RUNS, first_cap=_FIRST_CAP, k=st.integers(1, 5), added=_RUNS, data=st.data())
def test_barren_runs_last_keeps_what_the_demand_rule_reads(runs, first_cap, k, added, data):
    github = _TaggingInMemoryGitHub(runs)
    client = GitHubClient("http://github.invalid", TEST_TOKEN, transport=github)
    client.list_outstanding_jobs(REPO, RUNNER_LABELS, first_cap, in_progress=True, until_busy=False)
    github.runs = _mutate(runs, added, data)
    capped = client.list_outstanding_jobs(REPO, RUNNER_LABELS, k, in_progress=True, until_busy=False)
    _assert_keeps_what_the_demand_rule_reads(capped, _uncapped(github.runs), k)


@given(
    runs=_RUNS,
    first_cap=_FIRST_CAP,
    k=st.integers(1, 5),
    added=_RUNS,
    more=_RUNS,
    data=st.data(),
)
def test_a_failed_poll_keeps_what_the_demand_rule_reads(runs, first_cap, k, added, more, data):
    # A poll fails part-way, keeping the pages and flags it read; the runs
    # change again before the next poll completes.
    github = _TaggingInMemoryGitHub(runs)
    client = GitHubClient("http://github.invalid", TEST_TOKEN, transport=github)
    client.list_outstanding_jobs(REPO, RUNNER_LABELS, first_cap, in_progress=True, until_busy=False)
    github.runs = _mutate(runs, added, data)
    github.fail_at = data.draw(st.integers(1, 2 + len(github.runs)))
    try:
        client.list_outstanding_jobs(REPO, RUNNER_LABELS, first_cap, in_progress=True, until_busy=False)
    except TransientError:
        pass
    github.fail_at = None
    github.runs = _mutate(github.runs, more, data)
    capped = client.list_outstanding_jobs(REPO, RUNNER_LABELS, k, in_progress=True, until_busy=False)
    _assert_keeps_what_the_demand_rule_reads(capped, _uncapped(github.runs), k)
