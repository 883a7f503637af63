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
from dataclasses import dataclass, field, replace
from pathlib import Path

import pytest
import yaml

from runner_manager.bootstrap import RunnerProfile, emit_manifests, init_runner_dir, run_runner
from runner_manager.clock import SystemClock, to_rfc3339
from runner_manager.config import Config, Policy, RepoCoordinates
from runner_manager.github import GitHubClient
from runner_manager.harness import fake_github as fake_github_module
from runner_manager.harness import fake_kube as fake_kube_module
from runner_manager.harness import monitors
from runner_manager.harness.driver import ScenarioResult, run_scenario
from runner_manager.harness.fake_github import FakeGitHub
from runner_manager.harness.fake_kube import FakeKube, validate_objects
from runner_manager.harness.scenario import ScenarioEvent, ScenarioScript, generate_random_script
from runner_manager.harness.virtual_clock import SIM_EPOCH, VirtualClock
from runner_manager.kube import KubeClient, KubeCredentials
from runner_manager.labels import LabelSet
from runner_manager.reconciler import ANNOTATION_KEEPALIVE_STARTED, ANNOTATION_LAST_ACTIVE, keepalive_due_at

from conftest import assert_agrees_with_oracle, github_requests_by_time, kube_requests_by_time

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

BULK_SCENARIOS = 1000
RESTART_SCENARIOS = 100
MULTI_RUNNER_SCENARIOS = 200
# Request budget of the bulk batch, per poll: each ceiling sits just above
# the figure measured when it was set (1.943, 0.528 and 0.215). The
# Kubernetes figure is 9,142 requests in 42,499 polls, with the Deployment
# read only when the answer the loop holds is stale.
GITHUB_REQUESTS_PER_POLL = 2.0
GITHUB_CHARGED_PER_POLL = 0.54
KUBE_REQUESTS_PER_POLL = 0.22
# The same for one storm scenario of the benchmark (159 GitHub requests, 74
# of them charged, and 8 Kubernetes requests in 60 polls: four scale writes,
# none of them a cut while a job runs, and four reads). At the cap, a poll
# whose count is fresh stops at the first job in progress.
STORM_GITHUB_PER_POLL = 2.75
STORM_CHARGED_PER_POLL = 1.3
STORM_KUBE_PER_POLL = 0.14
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
def multi_runner_batch() -> tuple[BatchStats, int]:
    """Random scripts, half with restarts, at max_runners 2 to 4, where a
    cut of spec.replicas can remove a busy runner's pod; with the number of
    busy decisions."""
    stats = BatchStats()
    busy = 0
    for seed in range(MULTI_RUNNER_SCENARIOS):
        script = generate_random_script(7_000_000 + seed, with_faults=True, with_restarts=bool(seed % 2))
        script = replace(script, policy={"max_runners": 2 + seed % 3})
        result = run_scenario(script)
        _check_scenario(seed, script, result, stats)
        busy += sum(1 for _, _, reason in result.decisions if reason == "busy")
    assert stats.failures == [], stats.failures[:5]
    return stats, busy


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
    assert bulk.violations["demand"] == [], bulk.violations["demand"][:5]
    _ok(
        1,
        f"spec replicas stayed in 0..max_runners and every demand decision asked for min(jobs, max_runners) "
        f"across {bulk.scenarios} scenarios / {bulk.decisions} polls",
    )


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


def test_multi_runner_batch_keeps_every_monitor(multi_runner_batch):
    # Every monitor holds at max_runners 2 to 4: the oracle agrees, and no
    # scale-down removes a busy runner's pod, because the count never falls
    # while a counted job is in progress.
    stats, busy = multi_runner_batch
    assert stats.scenarios == MULTI_RUNNER_SCENARIOS
    assert {name: found[:5] for name, found in stats.violations.items() if found} == {}
    assert busy > 0, "no poll held a busy runner: the batch does not exercise the rule"
    print(
        f"MULTI-RUNNER BATCH PASS - {stats.scenarios} scenarios / {stats.decisions} polls at max_runners 2-4 "
        f"kept every monitor, 0 busy kills; {busy} busy decisions"
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
            repo = RepoCoordinates("biocore", "unifrac")
            jobs = github_client.list_outstanding_jobs(repo, LabelSet(MATCHING), 1, in_progress=True, until_busy=False)
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

    # Idle: each poll sends the conditional queued run listing. The
    # in-progress listing goes out only at polls that read the Deployment
    # or know 1 or more replicas: the first poll, which knows no count yet,
    # the 15 polls at 1 replica of each of the nine activations (the
    # scale-down's among them), and each read at 0 replicas. Only the first
    # poll's two listings draw on the rate limit.
    # Each of the nine activations reads the Deployment three times in its 16 polls: at the scale-up, which
    # falls a whole min_dwell after the last idle read, at the next poll,
    # which first sees the runner ready, and at the scale-down; the polls in
    # between come under min_dwell after that sighting and keep the count.
    # Otherwise it is read once per min_dwell (15 polls): 334 times in each
    # of the eight idle stretches of 5,024 polls between activations, and
    # 190 times in the last one, of 2,864 polls.
    idle = month_long_idle
    idle_polls = len(idle.decisions)
    assert idle_polls == 9 * 16 + 8 * 5024 + 2864 == 43200
    assert idle.github_charged_requests == 2
    assert idle.kube_requests["GET"] == 9 * 3 + 8 * (5024 // 15) + 2864 // 15 == 2889
    # The reads at 0: those of the idle stretches and the scale-ups of the
    # last eight activations.
    reads_at_zero = 8 * (5024 // 15) + 2864 // 15 + 8
    assert idle.github_api_requests == idle_polls + 1 + 9 * 15 + reads_at_zero == 46_206
    # Nine keepalive activations, each one patch to scale up with the
    # dwell's start and one to scale down with the exact stamp, and one more
    # in the first, whose sighting writes the unset last-active: never two
    # writes in a poll, and none while a ready runner stays wanted.
    assert idle.kube_requests["PATCH"] == 9 * 2 + 1 == 19
    print(
        f"REQUEST BUDGET PASS - requests a poll over {polls} polls: {rates}; "
        f"30-day idle: {idle.github_api_requests} GitHub requests, 2 charged, 2889 Kubernetes GETs in "
        f"{idle_polls} polls, 19 PATCHes"
    )


def test_request_budget_under_a_storm():
    # Over a hundred runs outstanding by the end, max_runners 4: job
    # fan-out, pagination and the runner churn of a busy repository.
    script = workloads.storm_script(1, 0)
    result = run_scenario(script)
    assert not result.scenario_failed, result.failure_reasons
    # Every monitor holds, the oracle and the busy kills included. The count
    # only rises: no cut while a job runs, so no write to undo one.
    assert {name: found for name, found in monitors.violations(script, result).items() if found} == {}
    assert result.writes == [(180, 1), (480, 2), (540, 3), (720, 4)]
    polls = len(result.decisions)
    per_poll = {
        "GitHub": (result.github_api_requests / polls, STORM_GITHUB_PER_POLL),
        "charged GitHub": (result.github_charged_requests / polls, STORM_CHARGED_PER_POLL),
        "Kubernetes": (sum(result.kube_requests.values()) / polls, STORM_KUBE_PER_POLL),
    }
    rates = _under_ceilings(per_poll, f"{polls} storm polls")
    print(f"STORM REQUEST BUDGET PASS - requests a poll over {polls} polls: {rates}")


def test_kube_request_shape_per_poll(monkeypatch):
    # Over the restart seeds, each poll's Deployment requests, filed by the
    # virtual instant they were sent at (time stands still during a poll):
    # at most one GET and one PATCH, a PATCH of 0 replicas only after a GET,
    # and a GET at every incarnation's first poll. A PATCH that keeps the
    # count carries keepalive-started, or comes on a poll that decided 0,
    # whose read saw no ready replica, or that found last-active unset: a
    # busy runner's last-active is written when it stops, not while it works.
    # A GET at 1 or more replicas, under min_dwell after the incarnation's
    # last successful read and with no Kubernetes failure on the poll before,
    # comes on a poll that decides 0 or on one where the keepalive, by the
    # stamp the poll started from, could fall due before the next stale
    # read: the one freshness rule.
    sent = kube_requests_by_time(monkeypatch)
    ready_at_read: dict[float, bool] = {}  # a successful GET: a replica was ready
    stamp_set: dict[float, bool] = {}  # a PATCH: the Deployment held last-active
    spec_at_get: dict[float, int] = {}  # a GET: spec.replicas before it
    handle = fake_kube_module._handle

    def noting_handle(kube, request):
        at = kube.clock.now() - SIM_EPOCH
        if request.method == "PATCH":
            stamp_set[at] = ANNOTATION_LAST_ACTIVE in kube.annotations
        else:
            spec_at_get[at] = kube.spec_replicas
        response = handle(kube, request)
        if request.method == "GET" and response.status == 200:
            ready_at_read[at] = kube.running_count() >= 1
        return response

    monkeypatch.setattr(fake_kube_module, "_handle", noting_handle)
    polls = first_polls = annotation_patches = fresh_count_reads = 0
    for seed in range(RESTART_SCENARIOS):
        sent.clear()
        ready_at_read.clear()
        stamp_set.clear()
        spec_at_get.clear()
        result = run_scenario(generate_random_script(10_000 + seed, with_faults=True, with_restarts=True))
        records = {entry.at: entry.detail for entry in result.trace.select("manager", "decision")}
        policy = result.policy
        desired = {record.decided_at - SIM_EPOCH: record.desired for record in records.values()}
        for at, requests in sent.items():
            methods = [method for method, _ in requests]
            assert methods.count("GET") <= 1 and methods.count("PATCH") <= 1, (seed, at, requests)
            for i, (method, body) in enumerate(requests):
                if method == "PATCH" and body.get("spec", {}).get("replicas") == 0:
                    assert "GET" in methods[:i], (seed, at, requests)
                if method == "PATCH" and "spec" not in body:
                    annotation_patches += 1
                    assert (
                        ANNOTATION_KEEPALIVE_STARTED in body["metadata"]["annotations"]
                        or desired.get(at) == 0
                        or ready_at_read.get(at) is False
                        or not stamp_set[at]
                    ), (seed, at, requests)
        # Each incarnation that starts polls first at its start instant.
        starts = [0.0] + [entry.at for entry in result.trace.select("driver", "manager_started")]
        for start in starts:
            assert ("GET", None) in sent[records[start].decided_at - SIM_EPOCH], (seed, start)
        last_read = previous = None
        for tick, record in sorted(records.items()):
            if tick in starts:
                last_read = previous = None  # a new incarnation knows nothing
            at = record.decided_at - SIM_EPOCH
            if (
                ("GET", None) in sent.get(at, [])
                and spec_at_get[at] >= 1
                and last_read is not None
                and at - last_read < policy.min_dwell
                and previous.consecutive_kube_errors == 0
            ):
                fresh_count_reads += 1
                due = keepalive_due_at(previous.last_active, policy)
                next_stale_decision = SIM_EPOCH + last_read + policy.min_dwell + 2 * policy.poll_interval
                assert record.desired == 0 or due is None or due <= next_stale_decision, (seed, at)
            if at in ready_at_read:
                last_read = at
            previous = record
        polls += len(records)
        first_polls += len(starts)
    print(
        f"REQUEST SHAPE PASS - {polls} polls of {RESTART_SCENARIOS} restart scenarios: at most one Deployment GET "
        f"and one PATCH a poll, every scale to 0 read first, all {first_polls} first polls of an incarnation read, "
        f"none of {annotation_patches} annotation-only PATCHes refreshed a busy runner's last-active, and each of "
        f"{fresh_count_reads} reads at 1 or more replicas under min_dwell after the last was one the keepalive "
        f"or a scale to 0 needed"
    )


def test_github_request_shape_per_poll(monkeypatch):
    # Over the restart seeds, each poll's GitHub requests, filed by the
    # virtual instant they were sent at. Every poll while the Deployment
    # holds 1 or more replicas lists the in-progress runs, so a busy runner
    # of its own is always counted; no poll whose in-progress runs already
    # hold max_runners matching outstanding jobs lists the queued runs; and
    # every GET of a page that the same incarnation was answered before
    # sends the page's ETag back.
    sent = github_requests_by_time(monkeypatch)
    in_progress_jobs: dict[float, list[LabelSet]] = {}  # a queued listing: the in-progress runs' outstanding jobs
    handle = fake_github_module._handle

    def noting_handle(github, request):
        if request.path.endswith("/actions/runs") and request.query.get("status") == "queued":
            running = {run_id for run_id, status, _ in github.runs() if status == "in_progress"}
            in_progress_jobs[github.clock.now() - SIM_EPOCH] = [
                LabelSet(job.labels)
                for job in github.jobs.values()
                if job.run_id in running and job.status in ("queued", "in_progress")
            ]
        return handle(github, request)

    monkeypatch.setattr(fake_github_module, "_handle", noting_handle)
    runs = "/repos/biocore/unifrac/actions/runs"
    polls = busy_polls = queued_listings = repeat_gets = 0
    for seed in range(RESTART_SCENARIOS):
        sent.clear()
        in_progress_jobs.clear()
        result = run_scenario(generate_random_script(10_000 + seed, with_faults=True, with_restarts=True))
        policy = result.policy
        starts = [entry.at for entry in result.trace.select("driver", "manager_started")]
        answered: set[str] = set()  # the pages this incarnation was answered with a 200
        for at, requests in sorted(sent.items()):
            polls += 1
            while starts and at >= starts[0]:
                starts.pop(0)
                answered.clear()  # a new incarnation caches nothing
            paths = [path for path, _, _ in requests]
            spec = next((replicas for written_at, replicas in reversed(result.writes) if written_at < at), 0)
            if spec >= 1:
                busy_polls += 1
                assert f"{runs}?status=in_progress&page=1" in paths, (seed, at, requests)
            if f"{runs}?status=queued&page=1" in paths:
                queued_listings += 1
                counted = sum(1 for labels in in_progress_jobs[at] if labels.issubset(policy.runner_labels))
                assert counted < policy.max_runners, (seed, at, requests)
            for path, if_none_match, status in requests:
                if path in answered:
                    repeat_gets += 1
                    assert if_none_match is not None, (seed, at, path)
                if status == 200:
                    answered.add(path)
    print(
        f"GITHUB REQUEST SHAPE PASS - {polls} polls of {RESTART_SCENARIOS} restart scenarios sent GitHub requests: "
        f"all {busy_polls} at 1 or more replicas listed the in-progress runs, none of {queued_listings} queued "
        f"listings came after the in-progress runs held max_runners matching jobs, and all {repeat_gets} repeat "
        f"GETs were conditional"
    )


def test_a_settled_poll_at_the_cap_reads_up_to_the_first_job_in_progress(monkeypatch):
    # Over the multi-runner seeds, each poll that decides busy at the cap
    # (the count it holds is max_runners) without a Deployment GET sends
    # the in-progress listing and then job pages, in order, up to the first
    # that holds a matching job in progress, and no queued listing: its
    # count was fresh, so it stopped there. Time stands still during a poll,
    # so its requests are those sent at its decision instant.
    sent = github_requests_by_time(monkeypatch)
    kube_sent = kube_requests_by_time(monkeypatch)
    busy_pages: dict[tuple[float, str], list[tuple[str, LabelSet]]] = {}  # a job page: its jobs as served
    handle = fake_github_module._handle

    def noting_handle(github, request):
        if request.path.endswith("/jobs"):
            run_id = int(request.path.split("/")[-2])
            busy_pages[github.clock.now() - SIM_EPOCH, request.path] = [
                (job.status, LabelSet(job.labels)) for job in github.jobs.values() if job.run_id == run_id
            ]
        return handle(github, request)

    monkeypatch.setattr(fake_github_module, "_handle", noting_handle)
    runs = "/repos/biocore/unifrac/actions/runs"
    settled = pages = 0
    for seed in range(MULTI_RUNNER_SCENARIOS):
        sent.clear()
        kube_sent.clear()
        busy_pages.clear()
        script = generate_random_script(7_000_000 + seed, with_faults=True, with_restarts=bool(seed % 2))
        result = run_scenario(replace(script, policy={"max_runners": 2 + seed % 3}))
        policy = result.policy
        for entry in result.trace.select("manager", "decision"):
            record = entry.detail
            at = record.decided_at - SIM_EPOCH
            if (
                record.reason.value != "busy"
                or (record.observed_replicas or 0) < policy.max_runners
                or ("GET", None) in kube_sent.get(at, [])
            ):
                continue
            settled += 1
            paths = [path for path, _, _ in sent[at]]
            assert paths[0] == f"{runs}?status=in_progress&page=1" and len(paths) >= 2, (seed, at, paths)
            assert all(path.partition("?")[0].endswith("/jobs") for path in paths[1:]), (seed, at, paths)
            busy = [
                any(status == "in_progress" and labels.issubset(policy.runner_labels) for status, labels in jobs)
                for jobs in (busy_pages[at, path.partition("?")[0]] for path in paths[1:])
            ]
            assert busy[-1] and not any(busy[:-1]), (seed, at, paths)
            pages += len(busy)
    assert settled > 0, "no poll settled at the cap: the batch does not exercise the rule"
    print(
        f"SETTLED POLL SHAPE PASS - {settled} busy polls at the cap of {MULTI_RUNNER_SCENARIOS} multi-runner "
        f"scenarios sent the in-progress listing and {pages} job pages, each poll's last the first with a job in "
        f"progress, and no queued listing"
    )


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
