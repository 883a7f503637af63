"""The manager process: an endless reconcile loop on a fixed poll cadence.

A termination signal stops the loop cleanly -- the in-flight poll is
finished or abandoned, never followed by a scale write. Transient API
trouble never terminates the loop; persistent credential failure does.
"""

from __future__ import annotations

import json
import logging
import math
import os
import signal
import sys
import threading
from typing import Callable

from .clock import Clock, SystemClock
from .config import IN_CLUSTER, Config, load_config
from .errors import ApiError, ConfigError, CredentialError, MissingDeploymentError
from .github import GitHubClient
from .kube import KubeClient, KubeCredentials, load_incluster_credentials
from .reconciler import ReconcileLoop, ReconcileRecord
from .status import StatusServer

logger = logging.getLogger(__name__)
reconcile_logger = logging.getLogger("runner_manager.reconcile")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CREDENTIALS = 2

Observer = Callable[[ReconcileRecord], None]


def build_kube_client(config: Config, environment: dict[str, str]) -> KubeClient:
    if config.kube_api_base == IN_CLUSTER:
        creds = load_incluster_credentials(
            config.kube_sa_dir, environment, namespace_override=config.kube_namespace
        )
    elif os.path.isdir(config.kube_sa_dir):
        creds = load_incluster_credentials(
            config.kube_sa_dir,
            environment,
            api_base_override=config.kube_api_base,
            namespace_override=config.kube_namespace,
        )
    else:
        creds = KubeCredentials(
            api_base=config.kube_api_base,
            bearer_token=environment.get("KUBE_TOKEN", ""),
            namespace=config.kube_namespace or "",
        )
    return KubeClient(creds, config.kube_deployment, config.policy.max_runners)


def run_service(
    config: Config,
    clock: Clock | None = None,
    stop: threading.Event | None = None,
    observer: Observer | None = None,
    environment: dict[str, str] | None = None,
    github: GitHubClient | None = None,
    kube: KubeClient | None = None,
) -> int:
    """Run reconcile iterations every poll_interval tick until stopped.

    Returns EXIT_OK on a clean stop, EXIT_CREDENTIALS after persistent
    credential failure against either API, EXIT_CONFIG for fatal
    preconditions such as a missing runner Deployment.
    """
    clock = clock or SystemClock()
    stop = stop or threading.Event()
    environment = environment if environment is not None else dict(os.environ)

    own_clients: list = []
    if github is None:
        github = GitHubClient(config.github_api_base, config.github_token, clock=clock)
        own_clients.append(github)
    if kube is None:
        try:
            kube = build_kube_client(config, environment)
        except ConfigError as exc:
            logger.error("cannot build kubernetes client: %s", exc)
            return EXIT_CONFIG
        own_clients.append(kube)

    loop = ReconcileLoop(
        github=github,
        kube=kube,
        policy=config.policy,
        clock=clock,
        repo=config.repo,
        stop=stop,
    )

    alive = threading.Event()
    alive.set()
    status_server: StatusServer | None = None
    if config.status_addr:
        status_server = StatusServer(config.status_addr, alive, clock, config.policy.poll_interval)
        status_server.start()

    exit_code = EXIT_OK
    start = clock.now()
    iteration = 0
    try:
        while not stop.is_set():
            tick = start + iteration * config.policy.poll_interval
            try:
                record = loop.reconcile_once(tick)
            except MissingDeploymentError as exc:
                logger.error("runner deployment missing, giving up: %s", exc)
                exit_code = EXIT_CONFIG
                break
            except CredentialError as exc:
                logger.error("persistent credential failure, giving up: %s", exc)
                exit_code = EXIT_CREDENTIALS
                break
            except ApiError as exc:
                # Defensive: classified errors are normally absorbed upstream.
                logger.warning("reconcile iteration failed: %s", exc)
                record = None

            if record is not None:
                reconcile_logger.info(json.dumps(record.as_log_dict()))
                if observer is not None:
                    observer(record)
                if status_server is not None:
                    status_server.publish(record)

            iteration += 1
            next_tick = start + iteration * config.policy.poll_interval
            now = clock.now()
            if now > next_tick:
                # A slow iteration overran the cadence; skip the missed ticks
                # rather than bunching reconciles together.
                iteration = math.ceil((now - start) / config.policy.poll_interval)
                next_tick = start + iteration * config.policy.poll_interval
            clock.wait_until(next_tick, stop)
    finally:
        alive.clear()
        if status_server is not None:
            status_server.close()
        for client in own_clients:
            client.close()

    return exit_code


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
    try:
        config = load_config(argv if argv is not None else sys.argv[1:], dict(os.environ))
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

    return run_service(config, SystemClock(), stop=stop)


if __name__ == "__main__":
    sys.exit(main())
