"""Seeded scenario batches for the three benchmark workloads.

Each workload is a fixed list of scenario scripts built from the seed
alone; the manager only ever sees the generated scripts. Batch sizes are
constants, so request counts and simulated-time figures depend on the seed
and nothing else.
"""

from __future__ import annotations

import random

from runner_manager.config import (
    DEFAULT_FORCE_INTERVAL,
    DEFAULT_MIN_DWELL,
    DEFAULT_POLL_INTERVAL,
    DEFAULT_RUNNER_LABELS,
)
from runner_manager.harness.scenario import ScenarioEvent, ScenarioScript, generate_random_script

WORKLOADS = ("idle", "churn", "storm")

POLL = DEFAULT_POLL_INTERVAL
FOREIGN_LABELS = ["self-hosted", "windows-arm"]

# idle: 90 simulated hours hold exactly two keepalive activations when the
# first one falls due 1-4 h in (the second follows 84 h after the first).
IDLE_HORIZON = 90 * 3600.0
IDLE_POD_STARTUP_DELAY = 20.0

# churn: about 20 CPU seconds on a 2-core Xeon VM. The batch is large because
# scale-up latency gets under one sample per scenario and request counts
# vary widely between scenarios.
CHURN_SCENARIOS = 150

# storm: 17 one-hour scenarios give just over 1000 polls, so poll_ms_p99 has
# at least ten polls beyond it.
STORM_SCENARIOS = 17
STORM_HORIZON = 60 * POLL
STORM_PUSHES = 55
STORM_RUNS = 165
STORM_FOREIGN_SHARE = 0.2
STORM_MAX_RUNNERS = 4
STORM_POD_STARTUP_DELAY = 20.0
STORM_LAST_ACTIVE = -3600.0


def build(workload: str, seed: int) -> list[ScenarioScript]:
    """The workload's scenario batch for ``seed``; same seed, same scripts."""
    if workload == "idle":
        return [idle_script(seed)]
    if workload == "churn":
        return [
            generate_random_script(seed * 100_000 + i, with_faults=True, with_restarts=True)
            for i in range(CHURN_SCENARIOS)
        ]
    if workload == "storm":
        return [storm_script(seed, i) for i in range(STORM_SCENARIOS)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def idle_script(seed: int) -> ScenarioScript:
    """Zero load with the default policy; the seed sets only initial_last_active.

    The stamp lies half a poll off the manager's 60 s grid, as one written
    by an earlier incarnation would, so the first activation waits 30 s for
    its poll; later activations fall due exactly on the grid.
    """
    rng = random.Random(f"idle:{seed}")
    first_due_polls = rng.randint(60, 240)
    lead = DEFAULT_FORCE_INTERVAL - DEFAULT_MIN_DWELL
    initial_last_active = first_due_polls * POLL - POLL / 2 - lead
    return ScenarioScript(
        horizon=IDLE_HORIZON,
        events=[],
        pod_startup_delay=IDLE_POD_STARTUP_DELAY,
        initial_last_active=initial_last_active,
    )


def storm_script(seed: int, index: int) -> ScenarioScript:
    """A busy repository building up to a storm of workflow runs.

    One push a minute; the k-th push brings about k/9 runs, so arrivals
    grow linearly and outstanding runs climb past one 100-item page only in
    the last quarter hour. A fifth of the runs ask for labels no runner has
    and stay queued for good, like hosted-runner workflows sharing the run
    listing. Each push lands half a poll before the next poll. The seed
    picks which runs are foreign and how long each matching job takes.
    """
    rng = random.Random(f"storm:{seed}:{index}")
    foreign = set(rng.sample(range(STORM_RUNS), round(STORM_RUNS * STORM_FOREIGN_SHARE)))

    def runs_before(push: int) -> int:
        return round(STORM_RUNS * push * (push + 1) / (STORM_PUSHES * (STORM_PUSHES + 1)))

    events = []
    for push in range(STORM_PUSHES):
        for run in range(runs_before(push), runs_before(push + 1)):
            if run in foreign:
                payload = {"labels": list(FOREIGN_LABELS)}
            else:
                payload = {"labels": list(DEFAULT_RUNNER_LABELS), "duration": round(rng.uniform(2 * POLL, 8 * POLL), 3)}
            events.append(ScenarioEvent(at=push * POLL + POLL / 2, kind="enqueue_job", payload=payload))
    return ScenarioScript(
        horizon=STORM_HORIZON,
        events=events,
        pod_startup_delay=STORM_POD_STARTUP_DELAY,
        initial_last_active=STORM_LAST_ACTIVE,
        policy={"max_runners": STORM_MAX_RUNNERS},
    )
