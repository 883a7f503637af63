"""One-time runner directory initialization and the pod entrypoint.

The runner software lives on a persistent volume (it auto-updates itself,
so the install must survive pod churn) while job workspaces go to a local
ephemeral partition. Initialization is crash-safe: the marker file is
written last, so a failed init leaves no half-trusted directory behind.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import signal
import subprocess
import threading
import time
from contextlib import contextmanager

from ..clock import to_rfc3339
from ..config import RepoCoordinates
from ..github import GitHubClient
from .profile import RunnerProfile

logger = logging.getLogger(__name__)

MARKER_NAME = ".runner-initialized"
LOCK_NAME = ".init.lock"
CONFIG_NAME = "runner-config.json"
# Seconds the runner software gets to exit after the forwarded SIGTERM
# before it is sent SIGKILL: under the kubelet's default termination grace
# period of 30 s, so this process, not the kubelet, ends it.
STOP_GRACE_SECONDS = 25.0


@contextmanager
def _init_lock(persistent_dir: str):
    # Advisory lock so two concurrent inits on a shared volume cannot interleave.
    lock_path = os.path.join(persistent_dir, LOCK_NAME)
    with open(lock_path, "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def init_runner_dir(
    profile: RunnerProfile,
    repo: RepoCoordinates,
    github: GitHubClient,
    now: float | None = None,
) -> bool:
    """Configure the runner directory once; re-running is a no-op.

    Obtains a fresh registration token, records the runner configuration
    (via the runner software's own configure script when present, directly
    otherwise), and only then drops the marker file. Returns True when this
    call initialized the directory, False when the marker was already there.
    """
    marker = os.path.join(profile.persistent_dir, MARKER_NAME)
    if not os.path.isdir(profile.persistent_dir):
        raise OSError(f"persistent dir does not exist: {profile.persistent_dir}")

    with _init_lock(profile.persistent_dir):
        if os.path.exists(marker):
            return False

        registration = github.create_registration_token(repo)

        runner_name = f"gha-runner-{repo.owner}-{repo.repo}"
        config = {
            "repo_url": f"https://github.com/{repo.owner}/{repo.repo}",
            "github_api_base": github.api_base,
            "registration_token": registration.token,
            "token_expires_at": to_rfc3339(registration.expires_at),
            "runner_name": runner_name,
            "labels": profile.labels.as_list(),
            "work_dir": profile.work_dir,
        }

        configure_script = os.path.join(profile.persistent_dir, "config.sh")
        if os.path.exists(configure_script):
            subprocess.run(
                [
                    configure_script,
                    "--unattended",
                    "--url", config["repo_url"],
                    "--token", registration.token,
                    "--name", runner_name,
                    "--labels", ",".join(profile.labels.as_list()),
                    "--work", profile.work_dir,
                ],
                check=True,
                cwd=profile.persistent_dir,
            )
        with open(os.path.join(profile.persistent_dir, CONFIG_NAME), "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
            fh.write("\n")

        if now is None:
            now = time.time()
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write(to_rfc3339(now) + "\n")

    return True


def run_runner(
    profile: RunnerProfile,
    stop: threading.Event,
    environment: dict[str, str] | None = None,
) -> int:
    """Launch ``<persistent_dir>/run.sh`` against the initialized directory.

    Refuses to start without the init marker. Termination requests are
    forwarded to the child so the runner software can deregister cleanly;
    a child still running ``STOP_GRACE_SECONDS`` later is killed. The
    child's exit status is returned (the Deployment controller handles
    restarts on crash).
    """
    environment = environment if environment is not None else dict(os.environ)
    marker = os.path.join(profile.persistent_dir, MARKER_NAME)
    if not os.path.exists(marker):
        logger.error(
            "runner directory %s is not initialized; run `runner-bootstrap init` first",
            profile.persistent_dir,
        )
        return 2

    child_env = dict(environment)
    child_env["RUNNER_CONFIG"] = os.path.join(profile.persistent_dir, CONFIG_NAME)
    child_env["RUNNER_WORK_DIR"] = profile.work_dir

    os.makedirs(profile.work_dir, exist_ok=True)
    run_sh = os.path.join(profile.persistent_dir, "run.sh")
    child = subprocess.Popen([run_sh], env=child_env, cwd=profile.persistent_dir)

    def _watch_stop():
        stop.wait()
        _terminate(child)

    threading.Thread(target=_watch_stop, daemon=True).start()

    try:
        return child.wait()
    except KeyboardInterrupt:
        _terminate(child)
        return child.wait()


def _terminate(child: subprocess.Popen) -> None:
    """Send the child SIGTERM, then SIGKILL if it outlives the grace period."""
    if child.poll() is not None:
        return
    child.send_signal(signal.SIGTERM)
    try:
        child.wait(timeout=STOP_GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        logger.warning("runner did not exit %.0f s after SIGTERM; sending SIGKILL", STOP_GRACE_SECONDS)
        child.kill()
