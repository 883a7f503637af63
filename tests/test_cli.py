"""The three command line surfaces."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
import yaml

import runner_manager.bootstrap.cli as bootstrap_cli
import runner_manager.harness.cli as harness_cli
import runner_manager.harness.monitors as monitors
import runner_manager.service as service
from runner_manager.clock import SystemClock
from runner_manager.harness.fake_github import FakeGitHub
from runner_manager.harness.scenario import ScenarioScript, ScenarioEvent, script_to_dict


def test_harness_run_with_script_and_oracle_check(tmp_path, capsys):
    script = ScenarioScript(
        horizon=600,
        events=[
            ScenarioEvent(at=10, kind="enqueue_job",
                          payload={"labels": ["self-hosted", "linux-gpu-cuda"], "duration": 120})
        ],
        pod_startup_delay=20,
        initial_last_active=0,
    )
    script_path = tmp_path / "scenario.yaml"
    script_path.write_text(yaml.safe_dump(script_to_dict(script)))
    trace_path = tmp_path / "trace.ndjson"

    rc = harness_cli.main(
        ["run", "--script", str(script_path), "--trace-out", str(trace_path), "--check-oracle"]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["oracle_match"] is True
    assert summary["scale_writes"] == [[60.0, 1], [240.0, 0]]

    entries = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert entries
    assert all({"at", "actor", "action", "detail"} <= set(e) for e in entries)


def test_harness_run_generated_scenario(capsys):
    rc = harness_cli.main(["run", "--seed", "3"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["scenario_failed"] is False


def test_bootstrap_manifests_to_stdout(capsys):
    rc = bootstrap_cli.main(
        ["manifests", "--owner", "biocore", "--repo", "unifrac", "--namespace", "ci"]
    )
    assert rc == 0
    objs = [o for o in yaml.safe_load_all(capsys.readouterr().out) if o]
    assert any(o["kind"] == "Deployment" for o in objs)


def test_bootstrap_init_via_cli(tmp_path, monkeypatch):
    github = FakeGitHub(expected_token="tok", clock=SystemClock()).start()
    try:
        runner_dir = tmp_path / "runner"
        runner_dir.mkdir()
        monkeypatch.setenv("GITHUB_TOKEN", "tok")
        rc = bootstrap_cli.main(
            [
                "init",
                "--dir", str(runner_dir),
                "--owner", "biocore",
                "--repo", "unifrac",
                "--labels", "self-hosted,linux-gpu-cuda",
                "--work-dir", str(tmp_path / "work"),
                "--github-api", github.base_url,
            ]
        )
        assert rc == 0
        assert (runner_dir / ".runner-initialized").exists()
        config = json.loads((runner_dir / "runner-config.json").read_text())
        assert config["registration_token"] == "REG-0001"
        assert github.header_violations == []
    finally:
        github.close()


@pytest.mark.parametrize("command", ["manifests", "init"])
def test_bootstrap_rejects_a_label_list_that_names_no_label(tmp_path, monkeypatch, capsys, command):
    # The manager refuses the same input, so bootstrap must not render or
    # register a runner without labels. Nothing listens on port 1.
    init = ["--dir", str(tmp_path), "--owner", "o", "--repo", "r", "--github-api", "http://127.0.0.1:1"]
    monkeypatch.setenv("GITHUB_TOKEN", "tok")
    rc = bootstrap_cli.main([command, "--labels", " , ", *(init if command == "init" else [])])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error: missing required field: labels (empty label list)" in captured.err
    assert not (tmp_path / ".runner-initialized").exists()


def test_bootstrap_init_without_token_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("GITHUB_TOKEN", raising=False)
    monkeypatch.delenv("GITHUB_TOKEN_FILE", raising=False)
    rc = bootstrap_cli.main(
        ["init", "--dir", str(tmp_path), "--owner", "o", "--repo", "r"]
    )
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


def test_service_main_reports_config_errors(capsys, monkeypatch):
    for var in ("GH_OWNER", "GH_REPO", "KUBE_DEPLOYMENT", "GITHUB_TOKEN"):
        monkeypatch.delenv(var, raising=False)
    before = (list(service.reconcile_logger.handlers), service.reconcile_logger.propagate)
    rc = service.main([])
    assert rc == service.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    # A rejected config must not redirect or silence reconcile records for
    # whatever runs later in the same process.
    assert (list(service.reconcile_logger.handlers), service.reconcile_logger.propagate) == before


def test_service_main_reports_a_non_integer_max_runners(capsys, monkeypatch):
    monkeypatch.setenv("GITHUB_TOKEN", "secret")
    rc = service.main(["--owner", "o", "--repo", "r", "--deployment", "d", "--max-runners", "two"])
    assert rc == service.EXIT_CONFIG
    assert "configuration error: max_runners" in capsys.readouterr().err


def test_harness_run_reports_a_bad_policy_block(tmp_path, capsys):
    script_path = tmp_path / "scenario.yaml"
    script_path.write_text("horizon: 600\npolicy: {max_runner: 2}\n")
    rc = harness_cli.main(["run", "--script", str(script_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "scenario error" in err and "max_runner" in err


def _job_script(fields: str) -> str:
    return f"horizon: 600\nevents:\n  - {{at: 10, kind: enqueue_job, {fields}}}\n"


@pytest.mark.parametrize(
    "text, named",
    [
        ("horizon: [600\n", "not valid YAML"),
        ("horizon: 600\npolicy: 5\n", "policy must be a mapping"),
        (_job_script("duration: null"), "enqueue_job duration must be a number"),
        ("horizon: 600\nevents: 5\n", "events must be a list"),
        (_job_script("labels: [1, 2]"), "enqueue_job labels must be a list of nonempty strings"),
        (_job_script("duraton: 30"), "enqueue_job has no field 'duraton'"),
        ("horizon: 600\nevents:\n  - {at: 10, kind: github_fault, staus: 404}\n", "github_fault has no field 'staus'"),
        (_job_script("labels: self-hosted"), "enqueue_job labels must be a list of nonempty strings"),
        ("horizn: 600\n", "unknown scenario key 'horizn'"),
        ("horizon: 600\nevents:\n  - {at: 10, kind: kube_fault, status: 200}\n", "kube_fault status must be"),
        ("horizon: 600\npod_startup_delay: -5\n", "pod_startup_delay must be >= 0"),
        ("horizon: 600\nevents:\n  - {at: 0, kind: restart_manager}\n", "restart_manager must come after t=0"),
        ("horizon: 600\nevents:\n  - {at: -30, kind: restart_manager}\n", "restart_manager must come after t=0"),
    ],
    ids=[
        "invalid-yaml",
        "policy-not-a-mapping",
        "null-duration",
        "events-not-a-list",
        "labels-not-strings",
        "misspelled-event-field",
        "misspelled-fault-field",
        "labels-a-string",
        "misspelled-top-level-key",
        "kube-fault-status-out-of-range",
        "negative-pod-startup-delay",
        "restart-at-zero",
        "restart-before-zero",
    ],
)
def test_harness_run_reports_a_malformed_script(tmp_path, capsys, text, named):
    script_path = tmp_path / "scenario.yaml"
    script_path.write_text(text)
    rc = harness_cli.main(["run", "--script", str(script_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and named in err


def test_fake_runner_requires_config(monkeypatch):
    from runner_manager.harness import fake_runner

    monkeypatch.delenv("RUNNER_CONFIG", raising=False)
    assert fake_runner.main() == 2


def test_service_logging_setup_is_idempotent(monkeypatch):
    # monkeypatch restores the logger's real handlers and propagate flag.
    monkeypatch.setattr(service.reconcile_logger, "handlers", [])
    monkeypatch.setattr(service.reconcile_logger, "propagate", True)
    service.configure_logging()
    service.configure_logging()
    assert len(service.reconcile_logger.handlers) == 1
    assert service.reconcile_logger.propagate is False


def test_harness_oracle_check_compares_scale_writes(monkeypatch, capsys):
    real = monitors.oracle_decisions

    def altered_writes(script, policy):
        expected = real(script, policy)
        return dataclasses.replace(expected, writes=expected.writes + [(9999.0, 1)])

    monkeypatch.setattr(monitors, "oracle_decisions", altered_writes)
    rc = harness_cli.main(["run", "--seed", "3", "--check-oracle"])
    summary = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert summary["oracle_match"] is False
    assert summary["oracle_first_diff"]["field"] == "writes"


def test_harness_oracle_check_compares_annotations(monkeypatch, capsys):
    real = monitors.oracle_decisions

    def altered_annotations(script, policy):
        expected = real(script, policy)
        return dataclasses.replace(expected, annotations={**expected.annotations, "runner-manager/last-active": "x"})

    monkeypatch.setattr(monitors, "oracle_decisions", altered_annotations)
    rc = harness_cli.main(["run", "--seed", "3", "--check-oracle"])
    summary = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert summary["oracle_match"] is False
    assert summary["oracle_first_diff"]["field"] == "annotations"
    assert summary["oracle_first_diff"]["expected"]["runner-manager/last-active"] == "x"


def test_secondary_rate_limit_scenario_agrees_with_the_oracle(tmp_path, capsys):
    script = Path(__file__).resolve().parent.parent / "scenarios" / "secondary-rate-limit.yaml"
    trace_path = tmp_path / "trace.ndjson"
    rc = harness_cli.main(["run", "--script", str(script), "--check-oracle", "--trace-out", str(trace_path)])
    summary = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert summary["oracle_match"] is True
    # Up at the first poll that sees the job, down only after it ends at 1580 s.
    assert summary["scale_writes"] == [[60.0, 1], [1620.0, 0]]
    entries = [json.loads(line) for line in trace_path.read_text().splitlines()]
    holds = [e["at"] for e in entries if e["action"] == "decision" and e["detail"]["reason"] == "hold"]
    assert holds and all(300 <= at < 1200 + 60 for at in holds)


# Jobs requeued because a scale-down removed a busy runner's pod, by
# shipped scenario (0 in the others): reported, not yet held at zero.
BUSY_KILLS = {"busy-scale-down": 1, "two-busy-pods-scale-down": 3}

# The trace digest of scenarios/restart-drill.yaml, pinned so that a change to
# how any entry, a decision's above all, is rendered fails here.
RESTART_DRILL_FINGERPRINT = "49f3ac7ae992577b3603fa5d8d7efe01d0436a6b7f42e921b64aee394293402f"


@pytest.mark.parametrize(
    "script", sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.yaml")), ids=lambda p: p.stem
)
def test_every_shipped_scenario_agrees_with_the_oracle(script, tmp_path, capsys, monkeypatch):
    results = []
    run_scenario = harness_cli.run_scenario
    monkeypatch.setattr(harness_cli, "run_scenario", lambda s: results.append(run_scenario(s)) or results[-1])
    trace_path = tmp_path / "trace.ndjson"
    rc = harness_cli.main(["run", "--script", str(script), "--check-oracle", "--trace-out", str(trace_path)])
    summary = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert summary["oracle_match"] is True
    assert summary["scenario_failed"] is False
    [result] = results
    # Every monitor holds, by the scenario's own policy (max_runners up to 4).
    assert {name: found for name, found in monitors.violations(result.script, result).items() if found} == {}
    assert len(monitors.busy_kills(result)) == BUSY_KILLS.get(script.stem, 0)
    # The file, to_ndjson and the streamed fingerprint render the same bytes.
    written = trace_path.read_bytes()
    assert written == result.trace.to_ndjson().encode()
    assert result.trace.fingerprint() == hashlib.sha256(written).hexdigest()
    if script.stem == "restart-drill":
        assert result.trace.fingerprint() == RESTART_DRILL_FINGERPRINT
    if script.stem == "restart-during-downtime":
        # The restart at t=150 supersedes the successor pending since t=130,
        # so that manager never starts and has no exit code.
        assert result.manager_exit_codes == [0, None, 0, 0]
        assert summary["scale_writes"] == [[120.0, 1], [745.0, 0]]
