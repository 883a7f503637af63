"""The stand-in for GitHub's proprietary runner binary.

Two forms share the claim/complete behavior:

* :class:`RunnerWorld` -- in-process actors bound to fake-kube pods, used by
  scenarios so everything stays on the virtual clock.
* ``main()`` -- a real subprocess (console script ``fake-github-runner``)
  that registers over HTTP, claims the oldest eligible job, drops a
  workspace file per job and exits cleanly on SIGTERM. Used to exercise the
  bootstrap entrypoint contract end to end.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import urllib.error
import urllib.request
from typing import Callable

from .fake_github import FakeGitHub

POLL_SECONDS = 0.02  # between claim attempts while idle
TIME_SCALE = 0.001  # wall seconds a job takes per simulated second of its duration


class RunnerWorld:
    """Keeps one fake runner per Running pod and drives job claims. Which
    runner works on which job is fake GitHub's to know, not the world's."""

    def __init__(
        self,
        github: FakeGitHub,
        labels: list[str],
        schedule: Callable[[float, Callable[[], None]], None],
        clock,
        on_event: Callable[[str, dict], None],
    ):
        self.github = github
        self.labels = list(labels)
        self.schedule = schedule
        self.clock = clock
        self.on_event = on_event
        self.runners: dict[str, int] = {}  # pod name -> runner id

    # fake_kube callbacks ---------------------------------------------------

    def pod_running(self, pod_name: str) -> None:
        if pod_name in self.runners:
            return
        self.runners[pod_name] = self.github.register_runner(pod_name, self.labels)
        self.on_event("runner_registered", {"pod": pod_name})
        self.settle()

    def pod_terminating(self, pod_name: str) -> None:
        runner_id = self.runners.pop(pod_name, None)
        if runner_id is None:
            return
        # Deregistration re-queues any in-flight job on the fake GitHub side.
        self.github.deregister_runner(runner_id)
        self.on_event("runner_deregistered", {"pod": pod_name})
        self.settle()

    # claims ------------------------------------------------------------------

    def settle(self) -> None:
        """Let every idle runner claim work until nothing changes."""
        progressed = True
        while progressed:
            progressed = False
            for pod_name in sorted(self.runners):
                runner_id = self.runners[pod_name]
                job = self.github.claim_job(runner_id)  # None while the runner is busy
                if job is None:
                    continue
                self.on_event("job_claimed", {"pod": pod_name, "job": job.job_id})
                self.schedule(
                    self.clock.now() + job.duration,
                    lambda p=pod_name, r=runner_id, j=job.job_id: self._complete(p, r, j),
                )
                progressed = True

    def _complete(self, pod_name: str, runner_id: int, job_id: int) -> None:
        # Refused for a stale timer: the job was re-queued or force-completed.
        if not self.github.complete_job(runner_id, job_id):
            return
        self.on_event("job_completed", {"pod": pod_name, "job": job_id})
        self.settle()


# -- subprocess form ---------------------------------------------------------


def _http_json(method: str, url: str, payload: dict | None = None) -> tuple[int, dict]:
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            body = response.read()
            return response.status, json.loads(body) if body else {}
    except urllib.error.HTTPError as exc:
        return exc.code, {}


def main() -> int:
    """Entry point for the subprocess fake runner.

    Reads its connection details from the JSON config file produced by
    ``runner-bootstrap init`` (path in RUNNER_CONFIG); the work directory
    comes from RUNNER_WORK_DIR. ``runner-bootstrap run`` sets both. Job
    durations are scaled down by ``TIME_SCALE`` so tests complete quickly.
    """
    config_path = os.environ.get("RUNNER_CONFIG")
    if not config_path or not os.path.exists(config_path):
        print("fake runner: RUNNER_CONFIG not set or missing", file=sys.stderr)
        return 2
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)

    api_base = config["github_api_base"].rstrip("/")
    work_dir = os.environ["RUNNER_WORK_DIR"]

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())

    status, body = _http_json(
        "POST",
        f"{api_base}/_harness/runners",
        {
            "name": config["runner_name"],
            "labels": config["labels"],
            "token": config["registration_token"],
        },
    )
    if status != 201:
        print(f"fake runner: registration rejected ({status})", file=sys.stderr)
        return 3
    runner_id = body["runner_id"]

    try:
        while not stop.is_set():
            status, job = _http_json("POST", f"{api_base}/_harness/runners/{runner_id}/claim")
            if status != 200 or not job:
                stop.wait(POLL_SECONDS)
                continue
            workspace = os.path.join(work_dir, f"job-{job['id']}")
            os.makedirs(workspace, exist_ok=True)
            with open(os.path.join(workspace, "result.txt"), "w", encoding="utf-8") as fh:
                fh.write(f"job {job['id']} ran with labels {job['labels']}\n")
            stop.wait(min(job["duration"] * TIME_SCALE, 0.5))
            _http_json(
                "POST",
                f"{api_base}/_harness/runners/{runner_id}/complete",
                {"job_id": job["id"]},
            )
    finally:
        _http_json("DELETE", f"{api_base}/_harness/runners/{runner_id}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
