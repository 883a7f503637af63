"""The manager process: an endless reconcile loop on a fixed poll cadence,
woken between ticks when a keepalive falls due or its dwell ends.

A termination signal stops the loop cleanly -- the in-flight poll is
finished or abandoned, never followed by a scale write. Transient API
trouble never terminates the loop; persistent credential failure does.
The Kubernetes credentials are resolved once, at start-up, by
:func:`runner_manager.kube.resolve_credentials` from the config and the
process environment.
"""

from __future__ import annotations

import json
import logging
import math
import os
import signal
import sys
import threading
from contextlib import ExitStack
from typing import TYPE_CHECKING, Callable

from .clock import Clock, SystemClock
from .config import Config, load_config
from .errors import ConfigError, CredentialError, MissingDeploymentError
from .github import GitHubClient
from .kube import KubeClient, resolve_credentials
from .reconciler import ReconcileLoop, ReconcileRecord, decision_changes_at

if TYPE_CHECKING:
    from .status import StatusServer

logger = logging.getLogger(__name__)
reconcile_logger = logging.getLogger("runner_manager.reconcile")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CREDENTIALS = 2

Observer = Callable[[ReconcileRecord], None]


def run_service(
    config: Config,
    clock: Clock,
    stop: threading.Event,
    environment: dict[str, str],
    observer: Observer | None = None,
    github: GitHubClient | None = None,
    kube: KubeClient | None = None,
) -> int:
    """Run reconcile iterations until stopped: one at every tick of the
    grid ``start + k * poll_interval``, and one more at the instant the last
    decision changes with time alone
    (:func:`~runner_manager.reconciler.decision_changes_at`) when that falls
    strictly between the poll and the next tick -- a keepalive falling due,
    or its dwell ending. Such a poll leaves the grid as it is. A poll that
    overruns the next tick skips the ticks it missed.

    Returns EXIT_OK on a clean stop, EXIT_CREDENTIALS after persistent
    credential failure against either API, EXIT_CONFIG for fatal
    preconditions such as unresolvable Kubernetes credentials, a status
    address that cannot be bound or a missing runner Deployment. The
    clients it builds itself are closed on every return.
    """
    with ExitStack() as cleanup:
        if github is None:
            github = GitHubClient(config.github_api_base, config.github_token, clock=clock)
            cleanup.callback(github.close)
        if kube is None:
            try:
                creds = resolve_credentials(config, environment)
            except ConfigError as exc:
                logger.error("cannot build kubernetes client: %s", exc)
                return EXIT_CONFIG
            kube = KubeClient(creds, config.kube_deployment, config.policy.max_runners)
            cleanup.callback(kube.close)

        loop = ReconcileLoop(
            github=github,
            kube=kube,
            policy=config.policy,
            clock=clock,
            repo=config.repo,
            stop=stop,
        )

        status_server: StatusServer | None = None
        if config.status_addr:
            from .status import StatusServer  # only serving status needs the HTTP server stack

            try:
                status_server = StatusServer(config.status_addr, clock, config.policy.poll_interval)
            except OSError as exc:
                logger.error("cannot serve status on %s: %s", config.status_addr, exc)
                return EXIT_CONFIG
            status_server.start()
            cleanup.callback(status_server.close)

        poll_interval = config.policy.poll_interval
        start = clock.now()
        tick, iteration = start, 1  # iteration: the next grid tick's index
        while not stop.is_set():
            try:
                record = loop.reconcile_once(tick)
            except MissingDeploymentError as exc:
                logger.error("runner deployment missing, giving up: %s", exc)
                return EXIT_CONFIG
            except CredentialError as exc:
                logger.error("persistent credential failure, giving up: %s", exc)
                return EXIT_CREDENTIALS

            changes_at = None
            if record is not None:
                changes_at = decision_changes_at(record.reason, loop.state, config.policy)
                if reconcile_logger.isEnabledFor(logging.INFO):
                    reconcile_logger.info(json.dumps(record.as_log_dict()))
                if observer is not None:
                    observer(record)
                if status_server is not None:
                    status_server.publish(record)

            now = clock.now()
            if now > start + iteration * poll_interval:
                # A slow iteration overran the cadence; skip the missed ticks
                # rather than bunching reconciles together.
                iteration = math.ceil((now - start) / poll_interval)
            tick = start + iteration * poll_interval
            if changes_at is not None and now < changes_at < tick:
                tick = changes_at  # off the grid; the grid tick stays next
            else:
                iteration += 1
            clock.wait_until(tick, stop)

    return EXIT_OK


def configure_logging() -> None:
    """Set up process logging for the service; calling it again changes nothing."""
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s")
    if reconcile_logger.handlers:
        return
    # Reconcile records go to stdout bare, one JSON object per line.
    reconcile_handler = logging.StreamHandler(sys.stdout)
    reconcile_handler.setFormatter(logging.Formatter("%(message)s"))
    reconcile_logger.addHandler(reconcile_handler)
    reconcile_logger.propagate = False


def main(argv: list[str] | None = None) -> int:
    environment = dict(os.environ)
    try:
        config = load_config(argv if argv is not None else sys.argv[1:], environment)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # Only a process that is going to run touches global logging state.
    configure_logging()
    stop = threading.Event()

    def _on_signal(signum, frame):
        logger.info("received signal %d, shutting down", signum)
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    return run_service(config, SystemClock(), stop, environment)


if __name__ == "__main__":
    sys.exit(main())
