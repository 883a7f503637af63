"""Configuration: flags, environment variables and secret files.

Precedence is flags > environment > built-in defaults. The GitHub token is
read from a file (the usual secret mount) or from GITHUB_TOKEN; its value is
kept out of reprs, logs and the status endpoint.
"""

from __future__ import annotations

import argparse
import re
from dataclasses import dataclass, field

from .errors import ConfigError
from .labels import LabelSet

DEFAULT_GITHUB_API = "https://api.github.com"
DEFAULT_SA_DIR = "/var/run/secrets/kubernetes.io/serviceaccount"
IN_CLUSTER = "in-cluster"

DEFAULT_POLL_INTERVAL = 60.0
DEFAULT_FORCE_INTERVAL = 84.0 * 3600.0  # 3.5 days
DEFAULT_MIN_DWELL = 15.0 * 60.0
DEFAULT_MAX_RUNNERS = 1
DEFAULT_RUNNER_LABELS = ("self-hosted", "linux-gpu-cuda")
OUTSTANDING_STATUSES = frozenset({"queued", "in_progress"})

WEEK_SECONDS = 7 * 24 * 3600.0

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(s|m|h|d)?\s*$")
_UNIT_SECONDS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, None: 1.0}


def parse_duration(text: str | float | int, *, name: str = "duration") -> float:
    """Parse '90', '90s', '15m', '84h' or '3.5d' into seconds; a number is
    seconds already. A boolean is refused."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return float(text)
    match = _DURATION_RE.match(text) if isinstance(text, str) else None
    if not match:
        raise ConfigError(f"{name}: cannot parse duration {text!r} (expected e.g. 60s, 15m, 84h)")
    return float(match.group(1)) * _UNIT_SECONDS[match.group(2)]


def parse_count(value: str | int, *, name: str) -> int:
    """Parse a whole number such as '4' or 4; a boolean or a fraction is refused."""
    fraction = isinstance(value, float) and not value.is_integer()
    if not (isinstance(value, bool) or fraction):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{name}: cannot parse whole number {value!r}")


def parse_labels(text: str | None) -> LabelSet:
    """Runner labels from comma-separated text; unset or empty text gives the
    defaults, and text that names no label is refused."""
    if not text:
        return LabelSet(DEFAULT_RUNNER_LABELS)
    labels = LabelSet.parse(text)
    if len(labels) == 0:
        raise ConfigError("missing required field: labels (empty label list)")
    return labels


def parse_listen_address(addr: str) -> tuple[str, int]:
    """'host:port' or ':port'; empty host binds every interface."""
    host, colon, port = addr.rpartition(":")
    if not (colon and port.isdecimal() and int(port) <= 65535):
        raise ConfigError(f"status_addr: expected host:port with a port from 0 to 65535, got {addr!r}")
    return host, int(port)


@dataclass(frozen=True)
class RepoCoordinates:
    owner: str
    repo: str

    def __post_init__(self):
        for name, value in (("owner", self.owner), ("repo", self.repo)):
            if not value:
                raise ConfigError(f"{name} must be a nonempty string")
            if "/" in value:
                raise ConfigError(f"{name} must not contain '/': {value!r}")


@dataclass(frozen=True)
class Policy:
    """Tunable provisioning knobs; all durations in seconds."""

    poll_interval: float = DEFAULT_POLL_INTERVAL
    force_interval: float = DEFAULT_FORCE_INTERVAL
    min_dwell: float = DEFAULT_MIN_DWELL
    max_runners: int = DEFAULT_MAX_RUNNERS
    runner_labels: LabelSet = field(default_factory=lambda: LabelSet(DEFAULT_RUNNER_LABELS))

    def __post_init__(self):
        if not self.poll_interval > 0:
            raise ConfigError("policy violates bound 'poll_interval > 0'")
        if not self.min_dwell >= self.poll_interval:
            raise ConfigError("policy violates bound 'min_dwell >= poll_interval'")
        if not self.force_interval > self.min_dwell:
            raise ConfigError("policy violates bound 'force_interval > min_dwell'")
        if not 2 * self.force_interval <= WEEK_SECONDS:
            raise ConfigError(
                "policy violates bound '2 x force_interval <= 7 days' "
                "(two provisionings must fit in one token lifetime)"
            )
        if not self.max_runners >= 1:
            raise ConfigError("policy violates bound 'max_runners >= 1'")


_POLICY_PARSERS = {
    "poll_interval": parse_duration,
    "force_interval": parse_duration,
    "min_dwell": parse_duration,
    "max_runners": parse_count,
}


def parse_policy(settings: dict, runner_labels: LabelSet | None = None) -> Policy:
    """A Policy from ``settings`` (name -> text or number); a setting left out
    keeps its default. Raises ConfigError naming an unknown setting, an
    unparseable value or the violated policy bound."""
    unknown = sorted(set(settings) - set(_POLICY_PARSERS))
    if unknown:
        raise ConfigError(f"unknown policy settings: {unknown}")
    kwargs = {name: _POLICY_PARSERS[name](value, name=name) for name, value in settings.items()}
    if runner_labels is not None:
        kwargs["runner_labels"] = runner_labels
    return Policy(**kwargs)


@dataclass
class Config:
    repo: RepoCoordinates
    policy: Policy
    kube_deployment: str
    github_api_base: str = DEFAULT_GITHUB_API
    github_token: str = field(default="", repr=False)
    kube_namespace: str | None = None
    kube_api_base: str = IN_CLUSTER
    kube_sa_dir: str = DEFAULT_SA_DIR
    status_addr: str | None = None


_FLAG_SPEC = [
    # (flag, env var, dest)
    ("--owner", "GH_OWNER", "owner"),
    ("--repo", "GH_REPO", "repo"),
    ("--labels", "RUNNER_LABELS", "labels"),
    ("--poll-interval", "POLL_INTERVAL", "poll_interval"),
    ("--force-interval", "FORCE_INTERVAL", "force_interval"),
    ("--min-dwell", "MIN_DWELL", "min_dwell"),
    ("--max-runners", "MAX_RUNNERS", "max_runners"),
    ("--github-api", "GITHUB_API_BASE", "github_api"),
    ("--github-token-file", "GITHUB_TOKEN_FILE", "github_token_file"),
    ("--namespace", "KUBE_NAMESPACE", "namespace"),
    ("--deployment", "KUBE_DEPLOYMENT", "deployment"),
    ("--kube-api", "KUBE_API_BASE", "kube_api"),
    ("--status-addr", "STATUS_ADDR", "status_addr"),
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="runner-manager",
        description="Scale a pre-declared self-hosted runner Deployment to match GitHub Actions demand.",
    )
    for flag, env, dest in _FLAG_SPEC:
        parser.add_argument(flag, dest=dest, default=None, help=f"(env: {env})")
    return parser


def load_config(flags: list[str], environment: dict[str, str]) -> Config:
    """Assemble and validate a Config; flags win over environment over defaults.

    Raises ConfigError naming the missing field or the violated policy bound.
    """
    try:
        args = _build_parser().parse_args(flags)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        raise ConfigError("unrecognized command line flags") from None

    def pick(dest: str, env: str) -> str | None:
        value = getattr(args, dest)
        if value is not None:
            return value
        return environment.get(env)

    values = {dest: pick(dest, env) for _, env, dest in _FLAG_SPEC}

    missing = [name for name in ("owner", "repo", "deployment") if not values[name]]
    if missing:
        raise ConfigError(f"missing required field: {missing[0]}")

    repo = RepoCoordinates(owner=values["owner"], repo=values["repo"])

    policy = parse_policy(
        {name: values[name] for name in _POLICY_PARSERS if values[name]}, runner_labels=parse_labels(values["labels"])
    )

    token = resolve_github_token(values["github_token_file"], environment)

    kube_api = values["kube_api"] or IN_CLUSTER
    namespace = values["namespace"] or None
    if kube_api != IN_CLUSTER and not namespace:
        raise ConfigError("missing required field: namespace (required with an explicit --kube-api)")

    status_addr = values["status_addr"] or None
    if status_addr:
        parse_listen_address(status_addr)

    return Config(
        repo=repo,
        policy=policy,
        kube_deployment=values["deployment"],
        github_api_base=(values["github_api"] or DEFAULT_GITHUB_API).rstrip("/"),
        github_token=token,
        kube_namespace=namespace,
        kube_api_base=kube_api,
        kube_sa_dir=environment.get("KUBE_SA_DIR", DEFAULT_SA_DIR),
        status_addr=status_addr,
    )


def read_secret_file(path: str, what: str) -> str:
    """The stripped contents of a mounted secret; ``ConfigError`` naming the
    path when the file cannot be read or holds nothing."""
    try:
        with open(path, encoding="utf-8") as fh:
            value = fh.read().strip()
    except OSError as exc:
        raise ConfigError(f"{what} not readable: {path} ({exc})") from exc
    if not value:
        raise ConfigError(f"{what} is empty: {path}")
    return value


def resolve_github_token(token_file: str | None, environment: dict[str, str]) -> str:
    if token_file:
        return read_secret_file(token_file, "github token file")
    token = environment.get("GITHUB_TOKEN", "").strip()
    if not token:
        raise ConfigError("missing required field: github token (--github-token-file or GITHUB_TOKEN)")
    return token
