"""The scenario monitors on hand-made scripts and runs."""

from pathlib import Path
from types import SimpleNamespace

import pytest

from runner_manager.config import Policy
from runner_manager.harness import monitors
from runner_manager.harness.driver import run_scenario
from runner_manager.harness.scenario import ScenarioEvent, ScenarioScript, load_script
from runner_manager.harness.virtual_clock import SIM_EPOCH


@pytest.mark.parametrize(
    "events, spans",
    [
        (
            [ScenarioEvent(at=100, kind="secondary_rate_limit"), ScenarioEvent(at=400, kind="github_recover")],
            [(99, 800)],  # the GitHub tail lasts 400 s past the recovery
        ),
        ([ScenarioEvent(at=100, kind="kube_fault")], [(99, float("inf"))]),
    ],
    ids=["secondary-rate-limit", "unrecovered"],
)
def test_trouble_spans(events, spans):
    assert monitors.trouble_spans(ScenarioScript(horizon=3600, events=events)) == spans


def test_cap_violations_read_the_policys_max_runners():
    run = SimpleNamespace(policy=Policy(max_runners=3), writes=[(60.0, 3), (120.0, 4), (180.0, 0)])
    assert monitors.cap_violations(run) == [(120.0, 4)]


def test_demand_targets_find_a_demand_decision_that_misreads_its_counts():
    # Three jobs for at most two runners: the first demand decision asks for
    # two, and later ones for what is left as the jobs finish.
    enqueue = {"labels": ["self-hosted", "linux-gpu-cuda"], "duration": 300}
    script = ScenarioScript(
        horizon=600, events=[ScenarioEvent(at=10, kind="enqueue_job", payload=enqueue)] * 3, policy={"max_runners": 2}
    )
    result = run_scenario(script)
    demand = [i for i, (_, _, reason) in enumerate(result.decisions) if reason == "demand"]
    assert demand and result.decisions[demand[0]][1] == 2
    assert monitors.demand_targets(result) == [] and monitors.violations(script, result)["demand"] == []
    # A saturated poll counts max_runners jobs. Doctor the first demand
    # decision to ask for one runner where its counts call for two.
    tick, _, reason = result.decisions[demand[0]]
    result.decisions[demand[0]] = (tick, 1, reason)
    _, queued, in_progress = result.poll_counts[demand[0]]
    assert queued + in_progress == 2
    assert monitors.demand_targets(result) == [(tick, 1, queued, in_progress)]
    assert monitors.violations(script, result)["demand"] == [(tick, 1, queued, in_progress)]


def _busy_scale_down():
    script = load_script(str(Path(__file__).resolve().parent.parent / "scenarios" / "busy-scale-down.yaml"))
    return script, run_scenario(script)


def test_busy_targets_find_a_busy_decision_that_is_no_floor_above_demand():
    # One job in progress on one of two runners: each busy decision keeps 2,
    # at or above the demand of 1 and within max_runners 2.
    script, result = _busy_scale_down()
    busy = [i for i, (_, _, reason) in enumerate(result.decisions) if reason == "busy"]
    assert busy and monitors.busy_targets(result) == [] and monitors.violations(script, result)["busy"] == []
    tick, _, reason = result.decisions[busy[0]]
    _, queued, in_progress = result.poll_counts[busy[0]]
    assert (queued, in_progress) == (0, 1)
    for target in (0, 3):  # below demand, or above max_runners
        result.decisions[busy[0]] = (tick, target, reason)
        assert monitors.busy_targets(result) == [(tick, target, 0, 1)]
    # A busy decision with no job in progress.
    result.decisions[busy[0]] = (tick, 2, reason)
    result.poll_counts[busy[0]] = (tick, 1, 0)
    assert monitors.violations(script, result)["busy"] == [(tick, 2, 1, 0)]


def test_busy_kills_are_held_at_zero():
    script, result = _busy_scale_down()
    assert monitors.busy_kills(result) == [] and monitors.violations(script, result)["busy_kills"] == []
    # Doctor the run: fake GitHub requeues job 2 at t=180, as when a cut to
    # one replica removed its runner's pod.
    result.trace.append(SIM_EPOCH + 180, "fake_github", "job_requeued", {"job": 2, "status": "queued"})
    assert len(monitors.busy_kills(result)) == 1
    assert monitors.violations(script, result)["busy_kills"] == [(180.0, 2)]
