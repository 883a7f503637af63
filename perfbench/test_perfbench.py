"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

The smoke runs shrink every workload so the whole file takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from runner_manager.harness.scenario import script_to_dict  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workloads_are_reproducible_under_a_seed(workload):
    first = [script_to_dict(s) for s in workloads.build(workload, 7)]
    again = [script_to_dict(s) for s in workloads.build(workload, 7)]
    other = [script_to_dict(s) for s in workloads.build(workload, 8)]
    assert first == again
    assert first != other


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "IDLE_HORIZON", 6 * 3600.0)
    monkeypatch.setattr(workloads, "CHURN_SCENARIOS", 2)
    monkeypatch.setattr(workloads, "STORM_SCENARIOS", 1)
    monkeypatch.setattr(run, "MIN_POLLS", 0)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_the_spec_metrics_and_passes_the_gate(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert result["metrics"]["scenario_pass_ratio"]["value"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "idle", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_subtracts_the_union_of_children():
    spans = [
        layers.Span(0, None, "transport.request", 0.0, 10.0, 1),
        layers.Span(1, 0, "httpserver.parse", 1.0, 2.0, 1),
        layers.Span(2, 0, "fake_kube.handle", 1.5, 4.0, 1),
        layers.Span(3, 0, "httpserver.render", 9.0, 12.0, 1),
    ]
    assert layers.self_times(spans) == {0: 6.0, 1: 1.0, 2: 2.5, 3: 3.0}
