"""Runner directory lifecycle: init-once semantics and the entrypoint contract."""

import hashlib
import json
import os
import shlex
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

import runner_manager
from runner_manager.bootstrap import (
    MARKER_NAME,
    RunnerProfile,
    init_runner_dir,
    run_runner,
)
from runner_manager.bootstrap import runner_dir
from runner_manager.clock import SystemClock
from runner_manager.config import RepoCoordinates
from runner_manager.errors import CredentialError
from runner_manager.github import GitHubClient
from runner_manager.harness.fake_github import FakeGitHub

REPO = RepoCoordinates("biocore", "unifrac")
LABELS = ["self-hosted", "linux-gpu-cuda"]


def _dir_digest(root: str) -> str:
    """Stable digest of a directory tree: paths plus file contents."""
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        digest.update(str(path.relative_to(root)).encode())
        if path.is_file():
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture
def github():
    server = FakeGitHub(expected_token="t", clock=SystemClock()).start()
    yield server
    server.close()
    # Every API request carried the token the ``client`` fixture sends, and
    # the API headers.
    assert server.header_violations == []


@pytest.fixture
def profile(tmp_path):
    persistent = tmp_path / "runner"
    work = tmp_path / "work"
    persistent.mkdir()
    work.mkdir()
    from runner_manager.labels import LabelSet

    return RunnerProfile(
        persistent_dir=str(persistent),
        work_dir=str(work),
        labels=LabelSet(LABELS),
    )


@pytest.fixture
def client(github):
    client = GitHubClient(github.base_url, "t")
    yield client
    client.close()


def test_init_writes_config_with_labels_and_token(client, profile):
    assert init_runner_dir(profile, REPO, client) is True
    assert os.path.exists(os.path.join(profile.persistent_dir, MARKER_NAME))
    config = json.loads(Path(profile.persistent_dir, "runner-config.json").read_text())
    assert config["registration_token"] == "REG-0001"
    assert "linux-gpu-cuda" in config["labels"]
    assert config["work_dir"] == profile.work_dir
    assert config["repo_url"] == "https://github.com/biocore/unifrac"


def test_second_init_is_noop_and_directory_byte_identical(github, client, profile):
    init_runner_dir(profile, REPO, client)
    before = _dir_digest(profile.persistent_dir)
    assert init_runner_dir(profile, REPO, client) is False
    assert _dir_digest(profile.persistent_dir) == before
    assert len(github.issued_registration_tokens) == 1


def test_failed_token_acquisition_leaves_no_marker(github, client, profile):
    github.set_fault("status", 403)
    with pytest.raises(CredentialError):
        init_runner_dir(profile, REPO, client)
    assert not os.path.exists(os.path.join(profile.persistent_dir, MARKER_NAME))
    assert not os.path.exists(os.path.join(profile.persistent_dir, "runner-config.json"))


def test_init_requires_existing_directory(client, tmp_path):
    from runner_manager.labels import LabelSet

    profile = RunnerProfile(
        persistent_dir=str(tmp_path / "missing"),
        work_dir=str(tmp_path / "work"),
        labels=LabelSet(LABELS),
    )
    with pytest.raises(OSError):
        init_runner_dir(profile, REPO, client)


def test_run_refuses_without_marker(profile):
    assert run_runner(profile, threading.Event(), environment={}) == 2


def test_profile_rejects_shared_directories(tmp_path):
    with pytest.raises(ValueError):
        RunnerProfile(persistent_dir=str(tmp_path), work_dir=str(tmp_path))


def fake_runner_env() -> dict[str, str]:
    """Environment under which ``run_runner`` starts the fake runner from this checkout.

    ``run_runner`` starts the child in the persistent dir, so a relative
    ``PYTHONPATH`` entry (``PYTHONPATH=src``) no longer points at the package
    there. The absolute directory holding the imported ``runner_manager`` goes
    first, so the child runs the same code the test imported, installed or not.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(runner_manager.__file__)))
    pythonpath = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": pythonpath}


def install_fake_runner(persistent_dir: str) -> None:
    """Put the fake runner where ``run_runner`` starts the runner software:
    an executable ``run.sh`` that execs it, so the pod's SIGTERM reaches it."""
    run_sh = Path(persistent_dir, "run.sh")
    run_sh.write_text(f"#!/bin/sh\nexec {shlex.quote(sys.executable)} -m runner_manager.harness.fake_runner\n")
    run_sh.chmod(0o755)


def test_entrypoint_runs_fake_runner_through_a_job(github, client, profile):
    # End to end: init, launch, claim, complete, terminate cleanly.
    github.enqueue_job(LABELS, duration=50.0)
    install_fake_runner(profile.persistent_dir)
    init_runner_dir(profile, REPO, client)

    stop = threading.Event()
    exit_codes = []
    # A daemon thread: a fake runner that never exits fails this test, and
    # does not keep the test process from ending.
    thread = threading.Thread(
        target=lambda: exit_codes.append(run_runner(profile, stop=stop, environment=fake_runner_env())),
        daemon=True,
    )
    thread.start()
    try:
        deadline = time.time() + 15
        # A child that dies early ends run_runner; stop waiting then, too.
        while time.time() < deadline and thread.is_alive():
            if all(job.status == "completed" for job in github.jobs.values()) and github.jobs:
                break
            time.sleep(0.05)
        assert github.jobs[1].status == "completed"
    finally:
        stop.set()
        thread.join(timeout=10)
    assert exit_codes == [0]
    assert not github.runners, "fake runner should deregister on shutdown"

    # Persistent/ephemeral separation: workspace artifacts live under work_dir,
    # configuration and marker state under persistent_dir.
    work_files = [str(p.relative_to(profile.work_dir)) for p in Path(profile.work_dir).rglob("*") if p.is_file()]
    assert any("job-1" in f for f in work_files)
    persistent_files = {p.name for p in Path(profile.persistent_dir).iterdir()}
    assert MARKER_NAME in persistent_files
    assert "runner-config.json" in persistent_files
    assert not any("job-" in name for name in persistent_files)


def test_a_runner_that_ignores_sigterm_is_killed_after_the_grace_period(profile, monkeypatch):
    # run.sh notes that it started and that it got SIGTERM, and keeps running.
    monkeypatch.setattr(runner_dir, "STOP_GRACE_SECONDS", 0.5)
    Path(profile.persistent_dir, MARKER_NAME).write_text("2024-01-01T00:00:00Z\n")
    run_sh = Path(profile.persistent_dir, "run.sh")
    run_sh.write_text("#!/bin/sh\ntrap 'touch got-term' TERM\ntouch started\nwhile :; do sleep 0.05; done\n")
    run_sh.chmod(0o755)
    started, got_term = Path(profile.persistent_dir, "started"), Path(profile.persistent_dir, "got-term")

    stop = threading.Event()
    exit_codes = []
    thread = threading.Thread(
        target=lambda: exit_codes.append(run_runner(profile, stop=stop, environment=dict(os.environ))),
        daemon=True,
    )
    thread.start()
    deadline = time.time() + 10
    while not started.exists() and time.time() < deadline:
        time.sleep(0.01)
    assert started.exists()
    stop.set()
    thread.join(timeout=10)
    assert exit_codes == [-signal.SIGKILL]
    assert got_term.exists()


def test_marker_contains_timestamp(client, profile):
    init_runner_dir(profile, REPO, client, now=1704067200.0)
    marker = Path(profile.persistent_dir, MARKER_NAME).read_text().strip()
    assert marker == "2024-01-01T00:00:00Z"
