"""runner-bootstrap: init / run / manifests subcommands."""

from __future__ import annotations

import argparse
import logging
import os
import signal
import sys
import threading

from ..config import DEFAULT_GITHUB_API, Config, Policy, RepoCoordinates, parse_labels, resolve_github_token
from ..errors import ApiError, ConfigError
from ..github import GitHubClient
from .manifests import emit_manifests
from .profile import RunnerProfile
from .runner_dir import MARKER_NAME, init_runner_dir, run_runner

logger = logging.getLogger(__name__)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = argparse.ArgumentParser(prog="runner-bootstrap", description="Runner pod helper commands.")
    sub = parser.add_subparsers(dest="command", required=True)

    init_p = sub.add_parser("init", help="one-time runner directory initialization")
    init_p.add_argument("--dir", required=True, help="persistent runner directory")
    init_p.add_argument("--owner", required=True)
    init_p.add_argument("--repo", required=True)
    init_p.add_argument("--labels", help="comma-separated runner labels")
    init_p.add_argument("--work-dir", default="/work")
    init_p.add_argument("--github-api", default=os.environ.get("GITHUB_API_BASE", DEFAULT_GITHUB_API))
    init_p.add_argument("--github-token-file", default=os.environ.get("GITHUB_TOKEN_FILE"))

    run_p = sub.add_parser("run", help="pod entrypoint: launch the runner software")
    run_p.add_argument("--dir", required=True, help="persistent runner directory")
    run_p.add_argument("--work-dir", required=True, help="ephemeral job workspace")

    man_p = sub.add_parser("manifests", help="print example Kubernetes manifests")
    man_p.add_argument("--owner", default="OWNER")
    man_p.add_argument("--repo", default="REPO")
    man_p.add_argument("--labels", help="comma-separated runner labels")
    man_p.add_argument("--namespace", default=None)
    man_p.add_argument("--deployment", default="gha-runner")
    man_p.add_argument("--image", default="REPLACE_WITH_RUNNER_IMAGE")

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


def _run(args: argparse.Namespace) -> int:
    if args.command == "init":
        token = resolve_github_token(args.github_token_file, dict(os.environ))
        profile = RunnerProfile(args.dir, args.work_dir, parse_labels(args.labels))
        github = GitHubClient(args.github_api, token)
        try:
            initialized = init_runner_dir(profile, RepoCoordinates(args.owner, args.repo), github)
        except (ApiError, OSError) as exc:
            print(f"init failed: {exc}", file=sys.stderr)
            return 1
        finally:
            github.close()
        status = "initialized" if initialized else "already_initialized"
        logger.info("%s (%s)", status, os.path.join(args.dir, MARKER_NAME))
        return 0

    if args.command == "run":
        profile = RunnerProfile(args.dir, args.work_dir)
        stop = threading.Event()
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
        signal.signal(signal.SIGINT, lambda *_: stop.set())
        return run_runner(profile, stop=stop)

    if args.command == "manifests":
        config = Config(
            repo=RepoCoordinates(args.owner, args.repo),
            policy=Policy(runner_labels=parse_labels(args.labels)),
            kube_deployment=args.deployment,
            kube_namespace=args.namespace,
        )
        sys.stdout.write(emit_manifests(config, image=args.image))
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
