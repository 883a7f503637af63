"""Shared fixtures: fake servers wired to real clients; the oracle check."""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Callable

import pytest

from runner_manager.config import Policy
from runner_manager.github import GitHubClient
from runner_manager.harness.fake_github import FakeGitHub
from runner_manager.harness.fake_kube import FakeKube
from runner_manager.harness.monitors import oracle_diff
from runner_manager.harness.virtual_clock import TimerClock
from runner_manager.kube import KubeClient, KubeCredentials

TEST_TOKEN = "ghp-test-token-123"


def assert_agrees_with_oracle(script, result) -> None:
    """The run's decisions, scale writes and final annotations are the
    independent oracle's, exactly."""
    assert (diff := oracle_diff(script, result)) is None, diff


class SteppingClock(TimerClock):
    """Unit-test clock: waits return instantly and advance time. A timer set
    with ``call_at`` runs once the clock reaches it, or at once if it has,
    so a fake Kubernetes pod with no start-up delay is Running as soon as it
    is created."""

    def __init__(self, start: float = 0.0):
        self._t = start
        self.waits: list[float] = []
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    @property
    def t(self) -> float:
        return self._t

    @t.setter
    def t(self, value: float) -> None:
        self._t = value
        while self._timers and self._timers[0][0] <= value:
            heapq.heappop(self._timers)[2]()

    def call_at(self, at: float, fn: Callable[[], None]) -> None:
        if at <= self._t:
            fn()
        else:
            heapq.heappush(self._timers, (at, next(self._seq), fn))

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
