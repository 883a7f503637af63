import pytest

from runner_manager.config import RepoCoordinates
from runner_manager.errors import CredentialError, ProtocolError, RateLimitedError, TransientError
from runner_manager.github import GitHubClient, RegistrationToken
from runner_manager.harness.httpserver import FakeHttpServer, Response
from runner_manager.labels import LabelSet
from runner_manager.transport import HttpResponse

from conftest import TEST_TOKEN

REPO = RepoCoordinates("biocore", "unifrac")
STATUSES = frozenset({"queued", "in_progress"})
RUNNER_LABELS = LabelSet(["self-hosted", "linux-gpu-cuda", "x64"])


def test_label_filtering_returns_only_eligible_jobs(fake_github, gh_client):
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    fake_github.enqueue_job(["ubuntu-latest"])
    jobs = gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    assert len(jobs) == 2
    assert all(job.status == "queued" for job in jobs)


def test_zero_runs_gives_empty_list(gh_client):
    assert gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS) == []


def test_pagination_across_runs(fake_github, gh_client, clock):
    # 150 matching queued jobs spread over 150 runs: the run listing paginates.
    for i in range(150):
        clock.advance(1)
        fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    jobs = gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    assert len(jobs) == 150
    assert [j.job_id for j in jobs] == list(range(1, 151))


def test_pagination_within_one_run(fake_github, gh_client):
    # One run holding 150 jobs: the per-run job listing paginates.
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"], jobs_in_run=150)
    jobs = gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    assert len(jobs) == 150


def test_ordering_is_by_created_at_then_id(fake_github, gh_client, clock):
    clock.advance(10)
    late_first = fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])[0]
    clock.t = 5
    earlier = fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])[0]
    jobs = gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    assert [j.job_id for j in jobs] == [earlier.job_id, late_first.job_id]


def test_repeated_listing_is_pure(fake_github, gh_client):
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    first = gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    second = gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    assert first == second


def test_every_request_carries_required_headers(fake_github, gh_client):
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    gh_client.create_registration_token(REPO)
    assert fake_github.api_request_count >= 4
    assert fake_github.header_violations == []
    for record in fake_github.request_log:
        assert record.headers["authorization"] == f"Bearer {TEST_TOKEN}"
        assert record.headers["accept"] == "application/vnd.github+json"
        assert record.headers["x-github-api-version"] == "2022-11-28"


def test_wrong_token_flagged_by_fake(fake_github, clock):
    client = GitHubClient(fake_github.base_url, "wrong-token", clock=clock)
    client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    assert fake_github.header_violations


def test_401_classified_as_credential_error(fake_github, gh_client):
    fake_github.set_fault("status", 401)
    with pytest.raises(CredentialError):
        gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)


def test_429_carries_retry_after(fake_github, gh_client):
    fake_github.set_fault("rate_limit", 120)
    with pytest.raises(RateLimitedError) as excinfo:
        gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    assert excinfo.value.retry_after == 120.0


def test_5xx_classified_transient(fake_github, gh_client):
    fake_github.set_fault("status", 503)
    with pytest.raises(TransientError):
        gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)


def test_registration_token_echoes_fixture(clock):
    from runner_manager.harness.fake_github import FakeGitHub

    gh = FakeGitHub(fixed_registration_token="REG-abc", registration_token_ttl=3600, clock=clock).start()
    try:
        client = GitHubClient(gh.base_url, TEST_TOKEN, clock=clock)
        token = client.create_registration_token(REPO)
        assert token == RegistrationToken(token="REG-abc", expires_at=clock.now() + 3600)
    finally:
        gh.close()


def test_registration_403_is_credential_error_without_retry(fake_github, gh_client):
    fake_github.registration_status = 403
    with pytest.raises(CredentialError):
        gh_client.create_registration_token(REPO)
    token_posts = [r for r in fake_github.request_log if "registration-token" in r.path]
    assert len(token_posts) == 1


def test_missing_expires_at_is_protocol_error(clock):
    server = FakeHttpServer(lambda request: Response.json(201, {"token": "REG-x"}))
    server.start()
    try:
        client = GitHubClient(server.base_url, TEST_TOKEN, clock=clock)
        with pytest.raises(ProtocolError):
            client.create_registration_token(REPO)
    finally:
        server.close()


def test_non_json_body_is_protocol_error(clock):
    server = FakeHttpServer(lambda request: Response(200, b"<html>nope</html>", "text/html"))
    server.start()
    try:
        client = GitHubClient(server.base_url, TEST_TOKEN, clock=clock)
        with pytest.raises(ProtocolError):
            client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    finally:
        server.close()


def test_unknown_repo_is_distinct_from_transient(fake_github, clock):
    client = GitHubClient(fake_github.base_url, TEST_TOKEN, clock=clock)
    with pytest.raises(CredentialError):
        client.list_outstanding_jobs(RepoCoordinates("nobody", "nothing"), STATUSES, RUNNER_LABELS)


def test_403_with_retry_after_is_secondary_rate_limit(fake_github, gh_client):
    fake_github.set_fault("secondary_rate_limit", 60)
    with pytest.raises(RateLimitedError) as excinfo:
        gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    assert (excinfo.value.status, excinfo.value.retry_after) == (403, 60.0)


# -- conditional requests -------------------------------------------------


def _statuses_since(fake_github, start: int) -> list[int]:
    return [r.status for r in fake_github.request_log[start:]]


def test_unchanged_poll_is_answered_304_with_identical_jobs(fake_github, gh_client):
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    first = gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    mark = len(fake_github.request_log)
    second = gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    assert second == first and len(first) == 1
    assert _statuses_since(fake_github, 0) == [200, 200, 200, 304, 304, 304]
    for record in fake_github.request_log[mark:]:
        assert record.headers["if-none-match"].startswith('W/"')
    # A 304 is still a request, and still carries every required header.
    assert fake_github.api_request_count == 6
    assert fake_github.header_violations == []


def test_changed_page_is_fetched_in_full_and_replaces_its_entry(fake_github, gh_client):
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    queued_runs = next(path for path in gh_client._pages if "status=queued" in path)
    old_etag = gh_client._pages[queued_runs][0]
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    mark = len(fake_github.request_log)
    jobs = gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    assert [j.job_id for j in jobs] == [1, 2]
    # in_progress runs and run 1's jobs are unchanged; the queued listing and
    # the new run's jobs are not.
    assert _statuses_since(fake_github, mark) == [304, 200, 304, 200]
    new_etag = gh_client._pages[queued_runs][0]
    assert new_etag != old_etag
    assert gh_client._pages[queued_runs][1]["total_count"] == 2
    mark = len(fake_github.request_log)
    assert gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS) == jobs
    assert _statuses_since(fake_github, mark) == [304, 304, 304, 304]


def test_failed_poll_leaves_the_cache_as_it_was(fake_github, gh_client, monkeypatch):
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    before = dict(gh_client._pages)

    fake_github.set_fault("status", 503)
    with pytest.raises(TransientError):
        gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    assert gh_client._pages == before
    fake_github.clear_fault()

    # A 404 part-way through a poll whose first page changed: the changed
    # page must not replace the entry the last completed poll left.
    fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"])
    request = gh_client._transport.request

    def refuse_new_run(method, url, headers, body=None):
        if "/runs/1002/jobs" in url:
            return HttpResponse(404, {}, b'{"message": "Not Found"}')
        return request(method, url, headers, body)

    monkeypatch.setattr(gh_client._transport, "request", refuse_new_run)
    with pytest.raises(CredentialError):
        gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    assert gh_client._pages == before


def test_pages_not_read_by_the_last_poll_drop_out(fake_github, gh_client):
    job = fake_github.enqueue_job(["self-hosted", "linux-gpu-cuda"], ref="w")[0]
    gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    assert any(f"/runs/{job.run_id}/jobs" in path for path in gh_client._pages)
    fake_github.force_complete("w")
    assert gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS) == []
    assert len(gh_client._pages) == 2
    assert not any("/jobs" in path for path in gh_client._pages)


def test_registration_token_post_is_never_conditional(clock):
    # A server that tags every answer, the POST's too.
    seen = []

    def handle(request):
        seen.append((request.method, request.headers.get("if-none-match")))
        if request.method == "POST":
            body = {"token": "REG-x", "expires_at": "2024-01-01T00:00:00Z"}
            return Response.json(201, body, {"ETag": 'W/"post"'})
        return Response.json(200, {"total_count": 0, "workflow_runs": []}, {"ETag": 'W/"get"'})

    server = FakeHttpServer(handle)
    server.start()
    try:
        client = GitHubClient(server.base_url, TEST_TOKEN, clock=clock)
        client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
        client.create_registration_token(REPO)
        client.create_registration_token(REPO)
        client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    finally:
        server.close()
    assert seen == [("GET", None)] * 2 + [("POST", None)] * 2 + [("GET", 'W/"get"')] * 2


def test_304_for_an_unconditional_request_is_protocol_error(clock):
    server = FakeHttpServer(lambda request: Response(304))
    server.start()
    try:
        client = GitHubClient(server.base_url, TEST_TOKEN, clock=clock)
        with pytest.raises(ProtocolError):
            client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    finally:
        server.close()


def test_server_without_etags_gets_plain_requests(clock):
    seen = []

    def handle(request):
        seen.append(request.headers.get("if-none-match"))
        return Response.json(200, {"total_count": 0, "workflow_runs": []})

    server = FakeHttpServer(handle)
    server.start()
    try:
        client = GitHubClient(server.base_url, TEST_TOKEN, clock=clock)
        for _ in range(2):
            assert client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS) == []
        assert seen == [None] * 4
        assert client.rate_limit_remaining is None
    finally:
        server.close()


def test_client_keeps_the_last_rate_limit_remaining(fake_github, gh_client):
    gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    assert gh_client.rate_limit_remaining == 4998
    gh_client.list_outstanding_jobs(REPO, STATUSES, RUNNER_LABELS)
    assert gh_client.rate_limit_remaining == 4998  # 304s are not charged
    gh_client.create_registration_token(REPO)
    assert gh_client.rate_limit_remaining == 4997
