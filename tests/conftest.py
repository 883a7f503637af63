"""Shared fixtures: fake servers wired to real clients."""

from __future__ import annotations

import threading

import pytest

from runner_manager.clock import Clock
from runner_manager.config import Policy
from runner_manager.github import GitHubClient
from runner_manager.harness.fake_github import FakeGitHub
from runner_manager.harness.fake_kube import FakeKube
from runner_manager.kube import KubeClient, KubeCredentials

TEST_TOKEN = "ghp-test-token-123"


class SteppingClock(Clock):
    """Unit-test clock: waits return instantly and advance time."""

    def __init__(self, start: float = 0.0):
        self.t = start
        self.waits: list[float] = []

    def now(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt

    def wait_until(self, deadline: float, interrupt: threading.Event) -> None:
        self.waits.append(deadline)
        if interrupt.is_set():
            return
        self.t = max(self.t, deadline)


@pytest.fixture
def clock():
    return SteppingClock()


@pytest.fixture
def fake_github(clock):
    server = FakeGitHub(expected_token=TEST_TOKEN, clock=clock, keep_request_log=True).start()
    yield server
    server.close()


@pytest.fixture
def gh_client(fake_github, clock):
    client = GitHubClient(fake_github.base_url, TEST_TOKEN, clock=clock)
    yield client
    client.close()


@pytest.fixture
def fake_kube(clock):
    server = FakeKube(clock=clock).start()
    server.keep_request_paths = True
    yield server
    server.close()


@pytest.fixture
def kube_client(fake_kube):
    creds = KubeCredentials(
        api_base=fake_kube.base_url,
        bearer_token="sa-token",
        ca_bundle=None,
        namespace="ci",
    )
    client = KubeClient(creds, "gha-runner", max_replicas=1)
    yield client
    client.close()


@pytest.fixture
def default_policy():
    return Policy()
