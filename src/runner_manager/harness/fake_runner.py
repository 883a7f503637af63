"""The stand-in for GitHub's proprietary runner binary.

Two forms share the claim/complete behavior:

* :class:`RunnerWorld` -- one runner per Running fake-kube pod, registered
  under the pod's name, used by scenarios so everything stays on the
  virtual clock: a job's completion is a timer set with the clock's
  ``call_at``. The world keeps no record of its own: which runners exist
  and which job each works on is fake GitHub's to know.
* ``main()`` -- a real subprocess (console script ``fake-github-runner``)
  that registers over HTTP under its configured name, claims the oldest
  eligible job, drops a workspace file per job and exits cleanly on
  SIGTERM. Used to exercise the bootstrap entrypoint contract end to end.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
from typing import Callable

from .fake_github import FakeGitHub
from .virtual_clock import TimerClock

POLL_SECONDS = 0.02  # between claim attempts while idle
TIME_SCALE = 0.001  # wall seconds a job takes per simulated second of its duration


class RunnerWorld:
    """Registers a fake runner for each Running pod and drives job claims."""

    def __init__(
        self,
        github: FakeGitHub,
        labels: list[str],
        clock: TimerClock,
        on_event: Callable[[str, dict], None],
    ):
        if not isinstance(clock, TimerClock):
            raise TypeError(f"RunnerWorld needs a TimerClock to complete jobs, not {type(clock).__name__}")
        self.github = github
        self.labels = list(labels)
        self.clock = clock  # also the scheduler: job completions are its call_at timers
        self.on_event = on_event

    # fake_kube callbacks ---------------------------------------------------

    def pod_running(self, pod_name: str) -> None:
        if self.github.register_runner(pod_name, self.labels) is None:
            return
        self.on_event("runner_registered", {"pod": pod_name})
        self.settle()

    def pod_terminating(self, pod_name: str) -> None:
        # Deregistration re-queues any in-flight job on the fake GitHub side.
        if not self.github.deregister_runner(pod_name):
            return
        self.on_event("runner_deregistered", {"pod": pod_name})
        self.settle()

    # claims ------------------------------------------------------------------

    def settle(self) -> None:
        """Let each idle runner, in name order, claim the oldest job it fits.
        One pass is enough: a claim never puts a job back in the queue."""
        for name in sorted(self.github.runners):
            job = self.github.claim_job(name)  # None while the runner is busy
            if job is None:
                continue
            self.on_event("job_claimed", {"pod": name, "job": job.job_id})
            self.clock.call_at(
                self.clock.now() + job.duration,
                lambda n=name, j=job.job_id: self._complete(n, j),
            )

    def _complete(self, name: str, job_id: int) -> None:
        # Refused for a stale timer: the job was re-queued or force-completed.
        if not self.github.complete_job(name, job_id):
            return
        self.on_event("job_completed", {"pod": name, "job": job_id})
        self.settle()


# -- subprocess form ---------------------------------------------------------


def _http_json(method: str, url: str, payload: dict | None = None) -> tuple[int, dict]:
    import urllib.error
    import urllib.request  # only the subprocess form speaks HTTP

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

    status, _ = _http_json(
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
    runner_url = f"{api_base}/_harness/runners/{config['runner_name']}"

    try:
        while not stop.is_set():
            status, job = _http_json("POST", f"{runner_url}/claim")
            if status != 200 or not job:
                stop.wait(POLL_SECONDS)
                continue
            workspace = os.path.join(work_dir, f"job-{job['id']}")
            os.makedirs(workspace, exist_ok=True)
            with open(os.path.join(workspace, "result.txt"), "w", encoding="utf-8") as fh:
                fh.write(f"job {job['id']} ran with labels {job['labels']}\n")
            stop.wait(min(job["duration"] * TIME_SCALE, 0.5))
            _http_json("POST", f"{runner_url}/complete", {"job_id": job["id"]})
    finally:
        _http_json("DELETE", runner_url)
    return 0


if __name__ == "__main__":
    sys.exit(main())
