"""Acceptance gate.

Every criterion runs at its stated strength on simulated time and prints a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``). The heavy
evidence -- a 1000-scenario randomized batch, a 30-day zero-load trace and a
100-scenario restart batch -- is computed once per session and shared.
"""

from __future__ import annotations

import gc
import hashlib
import random
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

import pytest
import yaml

from runner_manager.bootstrap import RunnerProfile, emit_manifests, init_runner_dir, run_runner
from runner_manager.clock import SystemClock, to_rfc3339
from runner_manager.config import Config, Policy, RepoCoordinates
from runner_manager.github import GitHubClient
from runner_manager.harness import monitors
from runner_manager.harness.driver import ScenarioResult, run_scenario
from runner_manager.harness.fake_github import FakeGitHub
from runner_manager.harness.fake_kube import FakeKube, validate_objects
from runner_manager.harness.scenario import ScenarioEvent, ScenarioScript, generate_random_script
from runner_manager.harness.virtual_clock import VirtualClock
from runner_manager.kube import KubeClient, KubeCredentials
from runner_manager.labels import LabelSet
from runner_manager.reconciler import ANNOTATION_LAST_ACTIVE

from conftest import assert_agrees_with_oracle

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

BULK_SCENARIOS = 1000
RESTART_SCENARIOS = 100
# Request budget of the bulk batch, per poll: each ceiling sits just above
# the figure measured when it was set (2.065, 0.528 and 1.038).
GITHUB_REQUESTS_PER_POLL = 2.1
GITHUB_CHARGED_PER_POLL = 0.54
KUBE_REQUESTS_PER_POLL = 1.04
# The same for one storm scenario of the benchmark (294 GitHub requests, 88
# of them charged, and 70 Kubernetes requests in 60 polls).
STORM_GITHUB_PER_POLL = 4.95
STORM_CHARGED_PER_POLL = 1.5
STORM_KUBE_PER_POLL = 1.2
# Memory budget: bytes a finished 6-hour idle run still holds, per poll,
# just above the figure measured when it was set (about 345; the trace and
# its decision records are most of it).
IDLE_HELD_BYTES_PER_POLL = 375
WEEK = 7 * 86400.0
MATCHING = ["self-hosted", "linux-gpu-cuda"]


def _ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS - {message}")


# -- shared evidence ----------------------------------------------------------


@dataclass
class BatchStats:
    scenarios: int = 0
    decisions: int = 0
    latency_checked: int = 0
    violations: defaultdict[str, list[str]] = field(default_factory=lambda: defaultdict(list))  # by monitor
    github_requests: int = 0
    github_charged_requests: int = 0
    kube_requests: int = 0
    failures: list[str] = field(default_factory=list)


def _check_scenario(seed, script: ScenarioScript, result: ScenarioResult, stats: BatchStats) -> None:
    stats.scenarios += 1
    stats.decisions += len(result.decisions)
    stats.github_requests += result.github_api_requests
    stats.github_charged_requests += result.github_charged_requests
    stats.kube_requests += sum(result.kube_requests.values())

    if result.scenario_failed:
        stats.failures.append(f"seed {seed}: {result.failure_reasons}")
        return
    for name, found in monitors.violations(script, result).items():
        stats.violations[name].extend(f"seed {seed}: {v}" for v in found)
    stats.latency_checked += len(monitors.scale_up_checks(script, result))


@pytest.fixture(scope="session")
def bulk() -> BatchStats:
    stats = BatchStats()
    started = time.time()
    for seed in range(BULK_SCENARIOS):
        script = generate_random_script(seed, with_faults=True, with_restarts=False)
        result = run_scenario(script)
        _check_scenario(seed, script, result, stats)
    print(
        f"\n[bulk] {stats.scenarios} scenarios, {stats.decisions} decisions, "
        f"{stats.github_requests} GitHub requests ({stats.github_charged_requests} charged), "
        f"{stats.kube_requests} Kubernetes requests in {time.time() - started:.0f}s"
    )
    assert stats.failures == [], stats.failures[:5]
    return stats


@pytest.fixture(scope="session")
def restart_batch() -> tuple[BatchStats, list[tuple[ScenarioScript, ScenarioResult]]]:
    """Criterion 7 evidence: restarts at random times, two policy families."""
    stats = BatchStats()
    keepalive_family: list[tuple[ScenarioScript, ScenarioResult]] = []
    for seed in range(70):
        script = generate_random_script(10_000 + seed, with_faults=True, with_restarts=True)
        result = run_scenario(script)
        _check_scenario(seed, script, result, stats)
    for seed in range(30):
        rng = random.Random(20_000 + seed)
        horizon = 4 * 1800.0 + rng.randint(0, 20) * 60.0
        events = [
            ScenarioEvent(
                at=round(rng.uniform(120, horizon * 0.9), 3),
                kind="restart_manager",
                payload={"downtime": rng.choice([0.0, 5.0, 45.0])},
            )
            for _ in range(rng.randint(1, 3))
        ]
        events.sort(key=lambda e: e.at)
        script = ScenarioScript(
            horizon=horizon,
            events=events,
            pod_startup_delay=20.0,
            policy={"force_interval": 1800.0, "min_dwell": 300.0},
        )
        result = run_scenario(script)
        _check_scenario(20_000 + seed, script, result, stats)
        keepalive_family.append((script, result))
    assert stats.failures == [], stats.failures[:5]
    return stats, keepalive_family


@pytest.fixture(scope="session")
def month_long_idle() -> ScenarioResult:
    script = ScenarioScript(horizon=30 * 86400.0, events=[], pod_startup_delay=20.0)
    started = time.time()
    result = run_scenario(script)
    print(f"\n[30-day idle trace] {len(result.decisions)} polls in {time.time() - started:.0f}s wall")
    assert not result.scenario_failed, result.failure_reasons
    assert_agrees_with_oracle(script, result)
    return result


# -- criteria -----------------------------------------------------------------


def test_criterion_1_one_runner_cap(bulk):
    assert bulk.scenarios >= BULK_SCENARIOS
    assert bulk.violations["cap"] == [], bulk.violations["cap"][:5]
    _ok(1, f"spec replicas stayed in 0..max_runners across {bulk.scenarios} scenarios / {bulk.decisions} polls")


def test_criterion_2_oracle_equivalence(bulk):
    assert bulk.violations["oracle"] == [], bulk.violations["oracle"][:5]
    _ok(2, f"decisions, scale writes and final annotations matched the oracle in all {bulk.scenarios} scenarios")


def test_criterion_3_demand_latency(bulk):
    assert bulk.latency_checked > 200, "batch produced too few quiescent enqueues to be meaningful"
    assert bulk.violations["latency"] == [], bulk.violations["latency"][:5]
    _ok(3, f"{bulk.latency_checked} quiescent enqueues all scaled up within poll_interval + one tick")


def test_criterion_4_keepalive_schedule(month_long_idle):
    result = month_long_idle
    policy = result.policy
    pairs = monitors.activations(result)
    ups = [up for up, _ in pairs]
    downs = [down for _, down in pairs]
    assert len(pairs) >= 8 and None not in downs

    # Dwell: every activation stays up at least min_dwell.
    for up, down in pairs:
        assert down - up >= policy.min_dwell, (up, down)

    # Drift: activation starts repeat every force_interval within one poll.
    gaps = [b - a for a, b in zip(ups, ups[1:])]
    for gap in gaps:
        assert abs(gap - policy.force_interval) <= policy.poll_interval, gap

    # Density: every 7-day window fully inside the trace holds >= 2 activations.
    horizon = result.script.horizon
    offsets = [0.0, horizon - WEEK] + [t + 1e-6 for t in ups if t + WEEK <= horizon]
    for offset in offsets:
        inside = [t for t in ups if offset <= t < offset + WEEK]
        assert len(inside) >= 2, f"window at {offset:.0f}s holds {len(inside)} activations"

    # Token age: the modeled credential is refreshed while a runner is Running;
    # the longest unrefreshed stretch must stay below the one-week lifetime.
    delay = result.script.pod_startup_delay
    worst = max(
        (next_up + delay + policy.poll_interval) - down
        for down, next_up in zip(downs, ups[1:])
    )
    assert worst < WEEK, worst
    _ok(
        4,
        f"{len(ups)} activations over 30 days; dwell >= {policy.min_dwell:.0f}s, "
        f"period {gaps[0]:.0f}s, worst token age {worst / 86400:.2f} days",
    )


def test_criterion_5_no_premature_deprovision(bulk):
    assert bulk.violations["premature_scale_down"] == [], bulk.violations["premature_scale_down"][:5]

    # Fault-injection spans up to 50 consecutive polls while a job is running:
    # not one scale-down write is allowed until the job finishes after recovery.
    for seed, fault_kind in enumerate(["github_fault", "rate_limit"] * 5):
        poll = 60.0
        span_polls = 50 if seed % 2 == 0 else 20 + seed
        payload = {"status": 503} if fault_kind == "github_fault" else {"retry_after": 90}
        fault_start = 150.0
        fault_end = fault_start + span_polls * poll
        script = ScenarioScript(
            horizon=fault_end + 600,
            events=[
                # The job outlasts the whole outage and completes after recovery.
                ScenarioEvent(
                    at=5,
                    kind="enqueue_job",
                    payload={"labels": MATCHING, "duration": fault_end - 80 + 120},
                ),
                ScenarioEvent(at=fault_start, kind=fault_kind, payload=payload),
                ScenarioEvent(at=fault_end, kind="github_recover"),
            ],
            pod_startup_delay=20.0,
            initial_last_active=0.0,
        )
        result = run_scenario(script)
        assert not result.scenario_failed
        assert_agrees_with_oracle(script, result)
        assert any(reason == "hold" for _, _, reason in result.decisions)
        down_writes = [t for t, v in result.writes if v == 0]
        assert len(down_writes) == 1 and down_writes[0] > fault_end, f"{fault_kind} span: scale-downs at {down_writes}"
    _ok(5, "zero premature scale-downs in the batch and in 10 dedicated 20-50-poll outage scenarios")


def test_criterion_6_unprivileged_operation(bulk, restart_batch, month_long_idle):
    restart_stats, _ = restart_batch
    offenders = bulk.violations["outside_role"] + restart_stats.violations["outside_role"]
    offenders += month_long_idle.cross_namespace_requests
    assert offenders == [], offenders[:5]
    _ok(6, "zero Kubernetes requests outside the Role across the entire suite")


def test_criterion_7_restart_resilience(restart_batch):
    stats, keepalive_family = restart_batch
    assert stats.scenarios == RESTART_SCENARIOS
    assert {name: found[:5] for name, found in stats.violations.items() if found} == {}

    # Keepalive-focused family: the manager polls when a keepalive falls due
    # and when its dwell ends, so only a restart's downtime moves the
    # schedule. Each dwell lasts exactly min_dwell, unless the horizon cuts
    # it or a downtime covers its end, which then lands at the first poll
    # after the downtime; activation starts drift from force_interval by at
    # most the downtimes of the restarts between them.
    gaps = 0
    for script, result in keepalive_family:
        policy = result.policy
        pairs = monitors.activations(result)
        assert pairs, "keepalive scenario produced no activations"
        restarts = [(e.at, e.arg("downtime")) for e in script.events if e.kind == "restart_manager"]
        for up, down in pairs:
            if down is None:
                continue
            end = up + policy.min_dwell
            late = [at + downtime for at, downtime in restarts if at <= end < at + downtime]
            assert down == (late[-1] if late else end), (up, down, late)
        ups = [up for up, _ in pairs]
        for a, b in zip(ups, ups[1:]):
            slack = sum(downtime for at, downtime in restarts if a <= at <= b)
            assert abs((b - a) - policy.force_interval) <= slack, (a, b, slack)
            gaps += 1
    _ok(
        7,
        f"{stats.scenarios} restart scenarios kept every monitor's rule; {len(keepalive_family)} keepalive "
        f"scenarios held each dwell to min_dwell and {gaps} activation gaps to force_interval within the downtimes",
    )


def test_criterion_8_bootstrap_idempotence_and_separation(tmp_path):
    github = FakeGitHub(expected_token="token", clock=SystemClock()).start()
    client = GitHubClient(github.base_url, "token")
    try:
        persistent, work = tmp_path / "runner", tmp_path / "work"
        persistent.mkdir()
        work.mkdir()
        profile = RunnerProfile(
            persistent_dir=str(persistent), work_dir=str(work), labels=LabelSet(MATCHING)
        )
        repo = RepoCoordinates("biocore", "unifrac")

        first = init_runner_dir(profile, repo, client)
        assert first is True
        digest_one = _tree_digest(persistent)
        second = init_runner_dir(profile, repo, client)
        assert second is False
        assert _tree_digest(persistent) == digest_one, "second init modified the persistent dir"

        github.enqueue_job(MATCHING, duration=40.0)
        stop = threading.Event()
        codes: list[int] = []
        from test_bootstrap import fake_runner_env, install_fake_runner

        install_fake_runner(str(persistent))
        env = fake_runner_env()
        thread = threading.Thread(target=lambda: codes.append(run_runner(profile, stop=stop, environment=env)))
        thread.start()
        try:
            deadline = time.time() + 15
            # A child that dies early ends run_runner; stop waiting then, too.
            while (
                time.time() < deadline
                and thread.is_alive()
                and not all(j.status == "completed" for j in github.jobs.values())
            ):
                time.sleep(0.05)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert codes == [0]
        assert github.jobs[1].status == "completed"

        workspace_files = [p for p in work.rglob("*") if p.is_file()]
        assert workspace_files, "job produced no workspace artifacts"
        persistent_names = {p.name for p in persistent.rglob("*")}
        assert not any(n.startswith("job-") for n in persistent_names)
        assert {".runner-initialized", "runner-config.json"} <= {p.name for p in persistent.iterdir()}
        # The registration-token POST carried the client's token and API headers.
        assert github.header_violations == []
    finally:
        client.close()
        github.close()
    _ok(8, "double init byte-identical; workspace artifacts confined to work_dir")


def test_criterion_9_wire_exactness(bulk):
    for name in ("github_headers", "scale_patches"):
        assert bulk.violations[name] == [], bulk.violations[name][:5]

    # The batch reaches the fakes in-process; here the same clients go over
    # real sockets to both fakes, each served by HttpServer.
    clock = VirtualClock()
    github = FakeGitHub(expected_token="token", clock=clock).start()
    kube = FakeKube(clock=clock).start()
    replica_writes = []
    kube.on_scale_write = lambda at, replicas: replica_writes.append(replicas)
    github.enqueue_job(MATCHING, duration=60.0)
    creds = KubeCredentials(api_base=kube.base_url, bearer_token="sa", ca_bundle=None, namespace="ci")
    try:
        with closing(GitHubClient(github.base_url, "token", clock=clock)) as github_client:
            jobs = github_client.list_outstanding_jobs(RepoCoordinates("biocore", "unifrac"), LabelSet(MATCHING), 1)
        with closing(KubeClient(creds, "gha-runner", max_replicas=1)) as kube_client:
            deployment = kube_client.read_scale()
            replicas = kube_client.write_scale(1, {ANNOTATION_LAST_ACTIVE: to_rfc3339(clock.now())})
    finally:
        github.close()
        kube.close()
    assert [job.status for job in jobs] == ["queued"]
    assert (deployment.spec_replicas, replicas) == (0, 1)
    assert github.header_violations == []
    assert kube.scale_patch_violations == []
    assert replica_writes == [1]
    _ok(
        9,
        f"{bulk.github_requests} GitHub requests carried bearer token, Accept and "
        f"X-GitHub-Api-Version: 2022-11-28; every scale change was a merge patch of the Deployment, "
        f"in-process and over real sockets",
    )


def _under_ceilings(per_poll: dict[str, tuple[float, float]], where: str) -> str:
    """Assert every (rate, ceiling) pair holds; the rates, for the PASS line."""
    over = {name: rate for name, (rate, ceiling) in per_poll.items() if rate > ceiling}
    assert over == {}, f"requests per poll over the ceiling in {where}: {over}"
    return ", ".join(f"{rate:.3f} {name} (ceiling {ceiling})" for name, (rate, ceiling) in per_poll.items())


def test_request_budget(bulk, month_long_idle):
    polls = bulk.decisions
    per_poll = {
        "GitHub": (bulk.github_requests / polls, GITHUB_REQUESTS_PER_POLL),
        "charged GitHub": (bulk.github_charged_requests / polls, GITHUB_CHARGED_PER_POLL),
        "Kubernetes": (bulk.kube_requests / polls, KUBE_REQUESTS_PER_POLL),
    }
    rates = _under_ceilings(per_poll, f"{polls} polls")

    # Idle: two conditional run listings a poll, of which only the first
    # poll's two draw on the rate limit. The Deployment is read on every
    # poll from an activation's first to its scale-down, 16 polls each of
    # the nine times, and otherwise once per min_dwell (15 polls): 334 times
    # in each of the eight idle stretches of 5,024 polls between
    # activations, and 190 times in the last one, of 2,864 polls.
    idle = month_long_idle
    idle_polls = len(idle.decisions)
    assert idle.github_api_requests == 2 * idle_polls
    assert idle.github_charged_requests == 2
    assert idle_polls == 9 * 16 + 8 * 5024 + 2864 == 43200
    assert idle.kube_requests["GET"] == 9 * 16 + 8 * (5024 // 15) + 2864 // 15 == 3006
    # Nine keepalive activations, each one patch to scale up with the
    # dwell's start, one to move last-active once the runner is ready, and
    # one to scale down with the exact stamp: never two writes in a poll.
    assert idle.kube_requests["PATCH"] == 27
    print(
        f"REQUEST BUDGET PASS - requests a poll over {polls} polls: {rates}; "
        f"30-day idle: 2 GitHub a poll, 2 charged, 3006 Kubernetes GETs in {idle_polls} polls, 27 PATCHes"
    )


def test_request_budget_under_a_storm():
    # Over a hundred runs outstanding by the end, max_runners 4: job
    # fan-out, pagination and the runner churn of a busy repository.
    script = workloads.storm_script(1, 0)
    result = run_scenario(script)
    assert not result.scenario_failed, result.failure_reasons
    assert_agrees_with_oracle(script, result)
    polls = len(result.decisions)
    per_poll = {
        "GitHub": (result.github_api_requests / polls, STORM_GITHUB_PER_POLL),
        "charged GitHub": (result.github_charged_requests / polls, STORM_CHARGED_PER_POLL),
        "Kubernetes": (sum(result.kube_requests.values()) / polls, STORM_KUBE_PER_POLL),
    }
    rates = _under_ceilings(per_poll, f"{polls} storm polls")
    print(f"STORM REQUEST BUDGET PASS - requests a poll over {polls} polls: {rates}")


def test_memory_budget():
    script = ScenarioScript(horizon=6 * 3600.0, events=[], pod_startup_delay=20.0)
    # A short run first, so that what the first run of a process sets up
    # once (imports, caches) is not counted against the polls.
    run_scenario(ScenarioScript(horizon=120.0, events=[]))
    gc.collect()
    tracemalloc.start()
    try:
        result = run_scenario(script)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not result.scenario_failed, result.failure_reasons
    polls = len(result.decisions)
    assert polls == 360
    per_poll = held / polls
    assert per_poll <= IDLE_HELD_BYTES_PER_POLL, f"{per_poll:.0f} bytes a poll held after a 6-hour idle run"
    print(f"MEMORY BUDGET PASS - {per_poll:.0f} bytes a poll held after {polls} idle polls "
          f"(ceiling {IDLE_HELD_BYTES_PER_POLL})")


def test_criterion_10_manifest_fidelity():
    config = Config(
        repo=RepoCoordinates("biocore", "unifrac"),
        policy=Policy(),
        kube_deployment="gha-runner",
        kube_namespace="ci",
    )
    text = emit_manifests(config)
    objs = [o for o in yaml.safe_load_all(text) if o]
    runner = next(o for o in objs if o.get("kind") == "Deployment" and o["metadata"]["name"] == "gha-runner")
    container = runner["spec"]["template"]["spec"]["containers"][0]
    resources = container["resources"]["requests"]
    assert resources["cpu"] == 4
    assert resources["memory"] == "8Gi"
    assert resources["ephemeral-storage"] == "80Gi"
    assert resources["nvidia.com/gpu"] == 1
    assert runner["spec"]["replicas"] == 0
    assert "env" not in container  # `runner-bootstrap init` fixes the labels; the pod reads none
    assert "linux-gpu-cuda" in text
    role = next(o for o in objs if o["kind"] == "Role")
    assert role["rules"] == [
        {"apiGroups": ["apps"], "resources": ["deployments"], "verbs": ["get", "patch"]},
    ]
    assert validate_objects(objs) == []
    _ok(
        10,
        "default manifests request cpu=4, memory=8Gi, ephemeral-storage=80Gi, 1 GPU, replicas=0, custom label; "
        "Role grants get/patch on the Deployment alone",
    )


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        digest.update(str(path.relative_to(root)).encode())
        if path.is_file():
            digest.update(path.read_bytes())
    return digest.hexdigest()
