"""The oracle against hand-computed expectations.

The oracle is the ground truth for scenario assertions, so its first
activations are derived by hand here and frozen:

Zero load, defaults (poll 60s, dwell 900s, force 84h = 302400s), fresh
install:

* tick 0: no history -> keepalive, write 1; dwell starts at 0.
* pod Running at 20s; every tick >= 60 refreshes last_active while up.
* tick 900: dwell complete (900 >= 900); last refresh was 840, and
  900 - 840 < force - dwell, so idle -> write 0. last_active ends at 900
  (the pod was still Running when observed at the scale-down tick).
* next due when now - 900 >= 302400 - 900, i.e. now >= 302400 (84h): the
  activation period equals force_interval exactly.
* the last-active annotation: tick 60 is the first to see the pod, and the
  annotation is unset, so it is written (60). Ticks 120-840 keep a wanted,
  ready runner and trail 60 by under 900 s, so nothing is written. Tick 900
  decides 0 and writes its own time exactly (900).
"""

from pathlib import Path

import pytest

from runner_manager.clock import to_rfc3339
from runner_manager.config import Policy
from runner_manager.harness.driver import run_scenario
from runner_manager.harness.oracle import ANNOTATION_LAST_ACTIVE, oracle_decisions
from runner_manager.harness.scenario import ScenarioEvent, ScenarioScript, load_script
from runner_manager.harness.virtual_clock import SIM_EPOCH

DAY = 86400.0
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_zero_load_first_two_activations_by_hand():
    script = ScenarioScript(horizon=4 * DAY, events=[], pod_startup_delay=20.0)
    result = oracle_decisions(script, Policy())
    assert result.writes[:4] == [
        (0.0, 1),
        (900.0, 0),
        (302400.0, 1),
        (303300.0, 0),
    ]


def test_zero_load_first_activation_writes_last_active_at_60_and_900_only():
    # The annotation at the end of each horizon is the last one written before it.
    stamps = []
    for horizon in range(1, 1800, 30):
        script = ScenarioScript(horizon=float(horizon), events=[], pod_startup_delay=20.0)
        stamps.append(oracle_decisions(script, Policy()).annotations.get(ANNOTATION_LAST_ACTIVE))
    written = [stamp for i, stamp in enumerate(stamps) if stamp != (stamps[i - 1] if i else None)]
    assert written == [to_rfc3339(SIM_EPOCH + 60.0), to_rfc3339(SIM_EPOCH + 900.0)]


def test_single_job_sequence_is_idle_demand_idle():
    script = ScenarioScript(
        horizon=900,
        events=[ScenarioEvent(at=10, kind="enqueue_job", payload={"duration": 120})],
        pod_startup_delay=20.0,
        initial_last_active=0.0,
    )
    result = oracle_decisions(script, Policy())
    reasons = [reason for _, _, reason in result.decisions]
    assert reasons[0] == "idle"
    assert "demand" in reasons
    first_demand = reasons.index("demand")
    # The job's queued poll is demand; once it runs, the one replica held
    # covers demand and the polls are busy.
    assert reasons[first_demand : reasons.index("idle", first_demand)] == ["demand", "busy", "busy"]
    # enqueue at 10s -> demand seen at the 60s tick; claim at 80s; done at 200s;
    # the 240s tick scales back down.
    assert result.writes == [(60.0, 1), (240.0, 0)]


def test_fault_span_produces_hold_decisions():
    script = ScenarioScript(
        horizon=600,
        events=[
            ScenarioEvent(at=70, kind="github_fault", payload={"status": 500}),
            ScenarioEvent(at=430, kind="github_recover"),
        ],
        initial_last_active=0.0,
    )
    result = oracle_decisions(script, Policy())
    by_tick = {tick: reason for tick, _, reason in result.decisions}
    assert by_tick[0.0] == "idle"
    assert by_tick[120.0] == "hold"
    assert by_tick[180.0] == "hold"
    assert by_tick[540.0] == "idle"


def test_hold_never_scales_down_a_running_runner():
    script = ScenarioScript(
        horizon=1200,
        events=[
            ScenarioEvent(at=5, kind="enqueue_job", payload={"duration": 3000, "ref": "j"}),
            ScenarioEvent(at=130, kind="github_fault", payload={"status": 503}),
            ScenarioEvent(at=1100, kind="github_recover"),
        ],
        pod_startup_delay=20.0,
        initial_last_active=0.0,
    )
    result = oracle_decisions(script, Policy())
    assert result.writes == [(60.0, 1)]
    reasons = {reason for _, _, reason in result.decisions}
    assert "hold" in reasons
    targets_during_fault = [t for tick, t, r in result.decisions if r == "hold"]
    assert all(t == 1 for t in targets_during_fault)


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.stem)
def test_script_alone_applies_its_own_policy(path):
    script = load_script(str(path))
    result = run_scenario(script)
    expected = oracle_decisions(script)
    assert expected.decisions == result.decisions
    assert expected.writes == result.writes
