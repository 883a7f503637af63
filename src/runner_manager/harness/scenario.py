"""Scenario scripts: timed event lists driving the fake world.

Scripts live in YAML or JSON files::

    horizon: 3600
    pod_startup_delay: 20
    events:
      - {at: 10, kind: enqueue_job, labels: [self-hosted, linux-gpu-cuda], duration: 300}
      - {at: 900, kind: github_fault, status: 503}
      - {at: 1200, kind: github_recover}

Event times are seconds from scenario start. ``EVENT_DEFAULTS`` lists each
kind's fields and their defaults; an unknown kind, field or top-level key
is rejected. ``complete_job`` refers to a previous ``enqueue_job`` by its
``ref``. An optional ``policy:`` mapping overrides ``poll_interval``,
``force_interval``, ``min_dwell`` and ``max_runners``; it is the only way to
set a scenario's policy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields

from ..config import DEFAULT_RUNNER_LABELS, Policy, parse_policy
from ..errors import ConfigError

# Each event kind's payload fields and their defaults; no other field is allowed.
EVENT_DEFAULTS: dict[str, dict] = {
    "enqueue_job": {"labels": sorted(DEFAULT_RUNNER_LABELS), "duration": 300.0, "ref": None},
    "complete_job": {"ref": None},
    "github_fault": {"status": 500},
    "github_recover": {},
    "kube_fault": {"status": 500},
    "kube_recover": {},
    "restart_manager": {"downtime": 0.0},
    "rate_limit": {"retry_after": 60},
    "secondary_rate_limit": {"retry_after": 60},
}

DEFAULT_POD_STARTUP_DELAY = 20.0

# generate_random_script's fixed shape; every seed draws from these.
RANDOM_POLL_INTERVAL = 60.0
RANDOM_MIN_TICKS = 25
RANDOM_MAX_TICKS = 60
RANDOM_MAX_CONCURRENT_JOBS = 10


@dataclass(frozen=True)
class ScenarioEvent:
    at: float
    kind: str
    payload: dict = field(default_factory=dict)

    def arg(self, name: str):
        """The payload's ``name``, or the kind's default for it."""
        return self.payload.get(name, EVENT_DEFAULTS[self.kind][name])


@dataclass
class ScenarioScript:
    horizon: float
    events: list[ScenarioEvent] = field(default_factory=list)
    pod_startup_delay: float = DEFAULT_POD_STARTUP_DELAY
    initial_last_active: float | None = None  # seconds relative to start, may be negative
    policy: dict = field(default_factory=dict)  # Policy overrides; see policy_from_script

    def __post_init__(self):
        validate_script(self)


def policy_from_script(script: ScenarioScript) -> Policy:
    """The script's policy overrides on top of the defaults.

    Raises ValueError naming an unknown key, an unparseable value or the
    violated policy bound.
    """
    try:
        return parse_policy(script.policy)
    except ConfigError as exc:
        raise ValueError(f"scenario policy: {exc}") from None


def validate_script(script: ScenarioScript) -> None:
    if not script.horizon > 0:
        raise ValueError("scenario horizon must be positive")
    if not script.pod_startup_delay >= 0:
        raise ValueError("scenario pod_startup_delay must be >= 0")
    policy_from_script(script)
    seen_refs: set[str] = set()
    last_at = float("-inf")
    for event in script.events:
        if event.kind not in EVENT_DEFAULTS:
            raise ValueError(f"unknown event kind {event.kind!r}")
        if event.at < last_at:
            raise ValueError(f"events must be sorted by time: {event}")
        last_at = event.at
        for name, value in event.payload.items():
            _check_field(event, name, value)
        if event.kind == "enqueue_job":
            ref = event.arg("ref")
            if ref is not None:
                if ref in seen_refs:
                    raise ValueError(f"duplicate job ref {ref!r}")
                seen_refs.add(ref)
            if not event.arg("duration") >= 0:
                raise ValueError(f"job duration must be >= 0: {event}")
        elif event.kind == "complete_job":
            if event.arg("ref") not in seen_refs:
                raise ValueError(f"complete_job must reference a previously enqueued job: {event}")
        elif event.kind in ("github_fault", "kube_fault"):
            if event.arg("status") not in range(400, 600):
                raise ValueError(f"{event.kind} status must be a whole number from 400 to 599: {event}")
        elif event.kind in ("rate_limit", "secondary_rate_limit"):
            # Retry-After carries whole seconds, and the fake sends it so.
            retry_after = float(event.arg("retry_after"))
            if retry_after <= 0 or not retry_after.is_integer():
                raise ValueError(f"{event.kind} retry_after must be a positive whole number of seconds: {event}")
        elif event.kind == "restart_manager":
            # The manager's first start is at t=0; a restart at or before it
            # would be a second first start.
            if not event.at > 0:
                raise ValueError(f"restart_manager must come after t=0: {event}")
            if not event.arg("downtime") >= 0:
                raise ValueError(f"restart downtime must be >= 0: {event}")


def _check_field(event: ScenarioEvent, name: str, value) -> None:
    """Reject a field the event's kind does not have, or a value of the wrong type."""
    if name not in EVENT_DEFAULTS[event.kind]:
        raise ValueError(f"{event.kind} has no field {name!r}: {event}")
    if name == "labels":
        if not (isinstance(value, list) and all(isinstance(x, str) and x.strip() for x in value)):
            raise ValueError(f"{event.kind} labels must be a list of nonempty strings: {event}")
    elif name == "ref":
        if not (value is None or isinstance(value, str)):
            raise ValueError(f"{event.kind} ref must be a string: {event}")
    else:
        _number(value, f"{event.kind} {name}")


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number: {value!r}")
    return float(value)


def load_script(path: str) -> ScenarioScript:
    """Load a YAML/JSON scenario file (JSON is a YAML subset)."""
    import yaml  # only reading a script needs it

    with open(path, encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: scenario file must hold a mapping")
    return script_from_dict(raw)


def script_from_dict(raw: dict) -> ScenarioScript:
    unknown = sorted(set(raw) - {f.name for f in fields(ScenarioScript)})
    if unknown:
        raise ValueError(f"unknown scenario key {unknown[0]!r}")
    policy = raw.get("policy") or {}
    if not isinstance(policy, dict):
        raise ValueError(f"scenario policy must be a mapping: {policy!r}")
    entries = raw.get("events") or []
    if not isinstance(entries, list):
        raise ValueError(f"scenario events must be a list: {entries!r}")
    events = []
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict) or "at" not in entry or "kind" not in entry:
            raise ValueError(f"event #{idx} needs 'at' and 'kind': {entry!r}")
        payload = {k: v for k, v in entry.items() if k not in ("at", "kind")}
        events.append(ScenarioEvent(_number(entry["at"], f"event #{idx} at"), str(entry["kind"]), payload))
    events.sort(key=lambda e: e.at)
    initial_last_active = raw.get("initial_last_active")
    return ScenarioScript(
        horizon=_number(raw.get("horizon", 3600), "horizon"),
        events=events,
        pod_startup_delay=_number(raw.get("pod_startup_delay", DEFAULT_POD_STARTUP_DELAY), "pod_startup_delay"),
        initial_last_active=(
            None if initial_last_active is None else _number(initial_last_active, "initial_last_active")
        ),
        policy=dict(policy),
    )


def script_to_dict(script: ScenarioScript) -> dict:
    out: dict = {
        "horizon": script.horizon,
        "pod_startup_delay": script.pod_startup_delay,
        "events": [{"at": e.at, "kind": e.kind, **e.payload} for e in script.events],
    }
    if script.initial_last_active is not None:
        out["initial_last_active"] = script.initial_last_active
    if script.policy:
        out["policy"] = script.policy
    return out


def generate_random_script(seed: int, with_faults: bool = True, with_restarts: bool = False) -> ScenarioScript:
    """Randomized but reproducible workload: job bursts, faults, restarts.

    Job arrivals keep at most ``RANDOM_MAX_CONCURRENT_JOBS`` outstanding; most
    jobs request the default runner labels, some request foreign labels and
    must be ignored. The script sets no policy, so the manager runs the default.
    """
    poll_interval = RANDOM_POLL_INTERVAL
    rng = random.Random(seed)
    horizon = poll_interval * rng.randint(RANDOM_MIN_TICKS, RANDOM_MAX_TICKS)
    events: list[tuple[float, str, dict]] = []

    # Job arrivals: bursty Poisson-ish process.
    outstanding: list[float] = []  # completion estimates, for the concurrency cap
    t = 0.0
    while True:
        t += rng.expovariate(1.0 / (6.0 * poll_interval))
        if t >= horizon * 0.9:
            break
        outstanding = [done for done in outstanding if done > t]
        burst = rng.randint(1, 3)
        for _ in range(burst):
            if len(outstanding) >= RANDOM_MAX_CONCURRENT_JOBS:
                break
            duration = rng.uniform(0.5, 8.0) * poll_interval
            matching = rng.random() > 0.15
            labels = list(DEFAULT_RUNNER_LABELS) if matching else ["self-hosted", "windows-arm"]
            events.append(
                (round(t + rng.uniform(0, 30), 3), "enqueue_job", {"labels": labels, "duration": round(duration, 3)})
            )
            if matching:
                outstanding.append(t + duration + 3 * poll_interval)

    if with_faults:
        for _ in range(rng.randint(0, 2)):
            start = rng.uniform(0, horizon * 0.85)
            span = rng.uniform(0.5, 6.0) * poll_interval
            if rng.random() < 0.3:
                events.append((round(start, 3), "rate_limit", {"retry_after": rng.choice([15, 30, 90, 180])}))
            else:
                events.append((round(start, 3), "github_fault", {"status": rng.choice([500, 502, 503])}))
            events.append((round(min(start + span, horizon - 1), 3), "github_recover", {}))
        if rng.random() < 0.25:
            start = rng.uniform(0, horizon * 0.85)
            span = rng.uniform(0.5, 4.0) * poll_interval
            events.append((round(start, 3), "kube_fault", {"status": 500}))
            events.append((round(min(start + span, horizon - 1), 3), "kube_recover", {}))

    if with_restarts:
        for _ in range(rng.randint(1, 3)):
            at = rng.uniform(poll_interval, horizon * 0.9)
            events.append((round(at, 3), "restart_manager", {"downtime": rng.choice([0.0, 5.0, 45.0])}))

    events.sort(key=lambda item: item[0])
    return ScenarioScript(
        horizon=horizon,
        events=[ScenarioEvent(at=at, kind=kind, payload=payload) for at, kind, payload in events],
        pod_startup_delay=rng.choice([0.0, 5.0, 20.0, 45.0]),
    )
