"""The scenario properties, each stated once, by the run's own policy.

Pure functions of a finished run that return its violations or samples.
Each reads ``result.policy``, so a rule holds at any ``max_runners``. The
acceptance gate, ``harness run --check-oracle`` and the tests all judge a
run here; a scenario never imports this module.
"""

from __future__ import annotations

from ..labels import LabelSet
from .driver import ScenarioResult
from .oracle import oracle_decisions
from .scenario import ScenarioScript
from .trace import TraceEntry

# Each kind of API trouble: the events that start it, the one that ends it,
# and how long it may linger after that (a Retry-After or backoff tail on
# GitHub's side, a second on Kubernetes').
TROUBLE = (
    (("github_fault", "rate_limit", "secondary_rate_limit"), "github_recover", 400.0),
    (("kube_fault",), "kube_recover", 1.0),
)


def oracle_diff(script: ScenarioScript, result: ScenarioResult) -> dict | None:
    """The first difference from the independent oracle in decisions, scale
    writes or the final annotations, in that order; None when all agree."""
    expected = oracle_decisions(script, result.policy)
    for field, want, got in (
        ("decisions", expected.decisions, result.decisions),
        ("writes", expected.writes, result.writes),
        ("annotations", expected.annotations, result.final_annotations),
    ):
        if want == got:
            continue
        if isinstance(want, dict):
            return {"field": field, "expected": want, "actual": got}
        for index, (e, a) in enumerate(zip(want, got)):
            if e != a:
                return {"field": field, "index": index, "expected": e, "actual": a}
        return {"field": field, "index": min(len(want), len(got)), "expected_len": len(want), "actual_len": len(got)}
    return None


def trouble_spans(script: ScenarioScript) -> list[tuple[float, float]]:
    """Intervals in which scripted API trouble, or its tail, may still act:
    from a second before a fault to its recovery plus the tail, or without
    end if it never recovers."""
    spans = []
    for starts, recover, tail in TROUBLE:
        start = None
        for event in script.events:
            if event.kind in starts and start is None:
                start = event.at
            elif event.kind == recover and start is not None:
                spans.append((start - 1, event.at + tail))
                start = None
        if start is not None:
            spans.append((start - 1, float("inf")))
    return spans


def cap_violations(result: ScenarioResult) -> list[tuple[float, int]]:
    """Scale writes outside 0..max_runners: (at, replicas)."""
    return [(at, replicas) for at, replicas in result.writes if not 0 <= replicas <= result.policy.max_runners]


def premature_scale_downs(result: ScenarioResult) -> list[tuple[float, int | None, int | None]]:
    """Writes of 0 replicas not preceded by a poll that saw nothing
    outstanding: (at, queued, in_progress) of the last poll before it."""
    found = []
    for at in (at for at, replicas in result.writes if replicas == 0):
        seen = [(queued, in_progress) for tick, queued, in_progress in result.poll_counts if tick <= at]
        queued, in_progress = seen[-1] if seen else (None, None)
        if queued is None or queued + in_progress > 0:
            found.append((at, queued, in_progress))
    return found


def scale_up_checks(script: ScenarioScript, result: ScenarioResult) -> list[tuple[float, float | None]]:
    """Each matching job enqueued into a quiescent, healthy system -- 0
    replicas, no trouble span and no manager restart within a poll of the
    window -- with its first write of at least one replica within
    2 x poll_interval, or None: (enqueued at, written at)."""
    policy = result.policy
    poll = policy.poll_interval
    troubled = trouble_spans(script)
    restarts = [e.at for e in script.events if e.kind == "restart_manager"]
    stretches = activations(result)
    checks = []
    for event in script.events:
        if event.kind != "enqueue_job" or not LabelSet(event.arg("labels")).issubset(policy.runner_labels):
            continue
        deadline = event.at + 2 * poll
        if deadline > script.horizon:
            continue
        if any(up <= event.at and (down is None or event.at < down) for up, down in stretches):
            continue
        if any(start <= deadline and end >= event.at for start, end in troubled):
            continue
        if any(event.at - poll <= r <= deadline for r in restarts):
            continue
        ups = [at for at, replicas in result.writes if replicas >= 1 and event.at <= at <= deadline]
        checks.append((event.at, ups[0] if ups else None))
    return checks


def activations(result: ScenarioResult) -> list[tuple[float, float | None]]:
    """Each stretch with runners: (the write up from 0, the write back to 0,
    or None if the horizon came first)."""
    found = []
    replicas = 0
    for at, value in result.writes:
        if not replicas and value:
            found.append((at, None))
        elif replicas and not value:
            found[-1] = (found[-1][0], at)
        replicas = value
    return found


def busy_kills(result: ScenarioResult) -> list[TraceEntry]:
    """Jobs fake GitHub put back in the queue because a scale-down removed
    the pod whose runner worked on them."""
    return result.trace.select("fake_github", "job_requeued")


def violations(script: ScenarioScript, result: ScenarioResult) -> dict[str, list]:
    """Every gated property's violations, by name; all empty on a good run."""
    diff = oracle_diff(script, result)
    return {
        "cap": cap_violations(result),
        "oracle": [] if diff is None else [diff],
        "premature_scale_down": premature_scale_downs(result),
        "latency": [at for at, up in scale_up_checks(script, result) if up is None],  # the enqueue times
        "outside_role": result.cross_namespace_requests,
        "github_headers": result.github_header_violations,
        "scale_patches": result.scale_patch_violations,
    }
