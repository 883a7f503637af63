"""The scenario monitors on hand-made scripts and runs."""

from types import SimpleNamespace

import pytest

from runner_manager.config import Policy
from runner_manager.harness import monitors
from runner_manager.harness.scenario import ScenarioEvent, ScenarioScript


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
