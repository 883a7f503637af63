"""Correctness gate and simulated-time figures for one scenario run.

Everything here reads a finished ``ScenarioResult``; nothing runs inside
the measured loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from runner_manager.harness.driver import ScenarioResult
from runner_manager.harness.oracle import OracleResult
from runner_manager.harness.scenario import ScenarioScript
from runner_manager.labels import LabelSet
from runner_manager.service import EXIT_OK

# GitHub does not charge a 304 Not Modified against the primary rate limit.
NOT_MODIFIED = 304


@dataclass(frozen=True)
class RunSummary:
    """The deterministic facts of one scenario run, compared across repeats."""

    polls: int
    github_requests: int
    github_charged_requests: int
    kube_requests: int
    decisions: tuple
    writes: tuple
    latencies: tuple[float, ...]
    no_runner_stretches: tuple[float, ...]
    trace_entries: int


def summarize(
    script: ScenarioScript, result: ScenarioResult, github_statuses: list[int], kube_requests: int
) -> RunSummary:
    not_modified = sum(1 for status in github_statuses if status == NOT_MODIFIED)
    return RunSummary(
        polls=len(result.decisions),
        github_requests=result.github_api_requests,
        github_charged_requests=result.github_api_requests - not_modified,
        kube_requests=kube_requests,
        decisions=tuple(result.decisions),
        writes=tuple(result.writes),
        latencies=tuple(scale_up_latencies(script, result)),
        no_runner_stretches=tuple(no_runner_stretches(script, result)),
        trace_entries=len(result.trace.entries),
    )


def failure_reasons(result: ScenarioResult, expected: OracleResult) -> list[str]:
    """Why a scenario run fails the gate; empty when it passes."""
    reasons = list(result.failure_reasons)
    if result.scenario_failed and not reasons:
        reasons.append("scenario_failed")
    # None is a manager the driver never started: its respawn fell past the horizon.
    unexpected = [code for code in result.manager_exit_codes if code not in (EXIT_OK, None)]
    if unexpected:
        reasons.append(f"unexpected manager exit codes {unexpected}")
    if list(result.decisions) != expected.decisions:
        reasons.append(f"decisions differ from the oracle at {_first_diff(expected.decisions, result.decisions)}")
    if list(result.writes) != expected.writes:
        reasons.append(f"writes differ from the oracle at {_first_diff(expected.writes, result.writes)}")
    reasons += [f"header violation: {v}" for v in result.github_header_violations]
    reasons += [f"scale patch violation: {v}" for v in result.scale_patch_violations]
    reasons += [f"cross-namespace request: {p}" for p in result.cross_namespace_requests]
    return reasons


def _first_diff(expected: list, actual: list):
    for index, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            return {"index": index, "oracle": want, "manager": got}
    return {"index": min(len(expected), len(actual)), "oracle_len": len(expected), "manager_len": len(actual)}


def scale_up_latencies(script: ScenarioScript, result: ScenarioResult) -> list[float]:
    """Simulated seconds from a need for a runner to the scale-up write.

    Jobs count as in acceptance criterion 3: a matching job enqueued at 0
    replicas, with GitHub and Kubernetes healthy and no manager restart
    within a poll of the window. Keepalive activations count from the
    instant they fall due (last runner activity + force_interval -
    min_dwell) when that instant lies inside the scenario.
    """
    policy = result.policy
    poll = policy.poll_interval
    troubled = _trouble_spans(script)
    restarts = [e.at for e in script.events if e.kind == "restart_manager"]
    timeline = result.replica_timeline()

    def replicas_at(t: float) -> int:
        value = 0
        for at, replicas in timeline:
            if at <= t:
                value = replicas
        return value

    samples = []
    for event in script.events:
        if event.kind != "enqueue_job":
            continue
        if not LabelSet(event.payload.get("labels", policy.runner_labels.as_list())).issubset(policy.runner_labels):
            continue
        deadline = event.at + 2 * poll
        if deadline > script.horizon or replicas_at(event.at) != 0:
            continue
        if any(start <= deadline and end >= event.at for start, end in troubled):
            continue
        if any(event.at - poll <= r <= deadline for r in restarts):
            continue
        ups = [at for at, replicas in result.writes if replicas >= 1 and event.at <= at <= deadline]
        if ups:
            samples.append(ups[0] - event.at)

    reasons = {tick: reason for tick, _, reason in result.decisions}
    deregistrations = [e.at for e in result.trace.select(actor="fake_runner", action="runner_deregistered")]
    previous = 0
    for at, replicas in result.writes:
        if previous == 0 and replicas >= 1 and reasons.get(at) == "keepalive":
            last_active = max((t for t in deregistrations if t <= at), default=script.initial_last_active)
            if last_active is not None:
                due = last_active + policy.force_interval - policy.min_dwell
                if 0 <= due <= at:
                    samples.append(at - due)
        previous = replicas
    return samples


def _trouble_spans(script: ScenarioScript) -> list[tuple[float, float]]:
    """Intervals where an API fault, or its backoff tail, could delay a write."""
    spans = []
    for down, up, tail in (
        (("github_fault", "rate_limit"), "github_recover", 400.0),
        (("kube_fault",), "kube_recover", 1.0),
    ):
        start = None
        for event in script.events:
            if event.kind in down and start is None:
                start = event.at
            elif event.kind == up and start is not None:
                spans.append((start - 1, event.at + tail))
                start = None
        if start is not None:
            spans.append((start - 1, float("inf")))
    return spans


def no_runner_stretches(script: ScenarioScript, result: ScenarioResult) -> list[float]:
    """Simulated seconds with no registered runner, from the fake_runner trace.

    A runner's credential is renewed only while it is registered, so the
    longest stretch bounds the credential's age. The first stretch starts at
    the seeded last-active stamp when the script has one; an open stretch
    at the horizon counts up to the horizon.
    """
    stretches = []
    registered = 0
    gap_start = script.initial_last_active if script.initial_last_active is not None else 0.0
    for entry in result.trace.select(actor="fake_runner"):
        if entry.action == "runner_registered":
            if registered == 0:
                stretches.append(entry.at - gap_start)
            registered += 1
        elif entry.action == "runner_deregistered":
            registered -= 1
            if registered == 0:
                gap_start = entry.at
    if registered == 0:
        stretches.append(script.horizon - gap_start)
    return stretches
