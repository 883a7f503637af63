"""Benchmark: the real manager against the fake servers, on virtual time.

Usage, from the repository root::

    python3 perfbench/run.py --workload idle|churn|storm --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics; only one timer pair per poll
is installed. ``--trace 1`` runs every scenario twice, untraced and then
traced, and prints the per-layer metrics, including the tracing overhead.
Every scenario run is checked against the oracle. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_POLLS = 1000  # so that the recorded poll p99 figures have at least ten polls beyond them
SETUP_PROBES = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("idle", "churn", "storm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "runner_manager" / "__init__.py").is_file():
        print(f"perfbench: no runner_manager sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The harness puts its service-account mount in the temp directory; keep
    # it inside the checkout.
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    return Bench(args).run()


@dataclass
class Measured:
    """One scenario run: host timings, deterministic summary, gate verdict."""

    index: int
    pass_no: int
    traced: bool
    start: float  # wall clock around run_scenario
    end: float
    cpu: float  # process CPU seconds inside run_scenario, all threads
    polls: list[tuple[float, float, float]]  # (wall start, wall end, manager thread CPU s)
    summary: object
    fingerprint: str
    reasons: list[str] = field(default_factory=list)


class Bench:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.load_at_start = os.getloadavg()
        self.steal_at_start = _cpu_ticks()
        self.runs: list[Measured] = []
        self.first: dict[int, Measured] = {}
        self.first_counts: dict[int, Counter] = {}
        self.nondeterministic: list[str] = []
        self.oracle_s: list[float] = []
        self.ctx: Counter = Counter()
        self.setup_samples: list[tuple[float, float]] = []

    def run(self) -> int:
        from runner_manager.harness import driver

        import layers
        import workloads

        self.driver = driver
        started = time.perf_counter()
        self.scripts = workloads.build(self.args.workload, self.args.seed)
        self.generate_s = time.perf_counter() - started

        self.fakes = _CapturedFakes(driver)
        try:
            if self.args.trace:
                self.layer_stats = LayerStats()
                self._measure_traced(layers)
            else:
                self._measure_untraced(layers)
        finally:
            self.fakes.uninstall()
        self.steal_share = _steal_share(self.steal_at_start, _cpu_ticks())
        metrics = self._layer_metrics() if self.args.trace else self._end_to_end_metrics()
        return self._report(metrics)

    # -- measuring -------------------------------------------------------------

    def _passes(self):
        """Scenario indices in batch order, repeated until the time is used.

        At least one whole pass always runs, and at least MIN_POLLS polls.
        Peak RSS is read when the first pass ends, so that it does not grow
        with the number of repeats a fast host fits in.
        """
        deadline = time.perf_counter() + self.args.seconds
        count = 0
        while True:
            yield count % len(self.scripts), count // len(self.scripts)
            count += 1
            if count == len(self.scripts):
                self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            polls = sum(len(run.polls) for run in self.runs if not run.traced)
            if count >= len(self.scripts) and time.perf_counter() >= deadline and polls >= MIN_POLLS:
                return

    def _measure_untraced(self, layers) -> None:
        timer = layers.PollTimer()
        timer.install()
        try:
            for index, pass_no in self._passes():
                self._run_one(index, pass_no, timer)
        finally:
            timer.uninstall()

    def _measure_traced(self, layers) -> None:
        timer = layers.PollTimer()
        tracer = layers.Tracer()
        for index, pass_no in self._passes():
            timer.install()
            before = resource.getrusage(resource.RUSAGE_SELF)
            try:
                untraced = self._run_one(index, pass_no, timer)
            finally:
                timer.uninstall()
            after = resource.getrusage(resource.RUSAGE_SELF)
            self.ctx["voluntary"] += after.ru_nvcsw - before.ru_nvcsw
            self.ctx["involuntary"] += after.ru_nivcsw - before.ru_nivcsw
            self.ctx["polls"] += untraced.summary.polls

            tracer.reset()
            tracer.install()
            try:
                traced = self._run_one(index, pass_no, None, tracer)
            finally:
                tracer.uninstall()
            self.layer_stats.add(tracer, traced, layers)
            counts = tracer.counts + Counter(span.name for span in tracer.spans)
            if index not in self.first_counts:
                self.first_counts[index] = counts
            elif counts != self.first_counts[index]:
                self.nondeterministic.append(f"scenario {index}: traced counts differ between repeats")

    def _run_one(self, index: int, pass_no: int, timer, tracer=None) -> Measured:
        """Run one scenario, then gate it; only run_scenario itself is timed."""
        import checks
        from runner_manager.harness.oracle import oracle_decisions

        script = self.scripts[index]
        cpu = time.process_time()
        start = time.perf_counter()
        result = self.driver.run_scenario(script, keep_request_log=True)
        end = time.perf_counter()
        cpu = time.process_time() - cpu
        if tracer is not None:
            polls = sorted((s.start, s.end, 0.0) for s in tracer.spans if s.name == "reconciler.reconcile_once")
            tracer.counts["fake_github.jobs_total"] = len(self.fakes.github.jobs)
        else:
            polls = timer.take()
        statuses = [r.status for r in self.fakes.github.request_log if r.path.startswith("/repos/")]
        summary = checks.summarize(script, result, statuses, len(self.fakes.kube.request_paths))
        self.fakes.clear()
        run = Measured(index, pass_no, tracer is not None, start, end, cpu, polls, summary, result.trace.fingerprint())
        first = self.first.setdefault(index, run)
        if first is run:
            started = time.perf_counter()
            expected = oracle_decisions(script, result.policy)
            self.oracle_s.append(time.perf_counter() - started)
            run.reasons = checks.failure_reasons(result, expected)
        elif first.summary == run.summary:
            run.reasons = list(first.reasons)
        else:
            self.nondeterministic.append(
                f"scenario {index}: deterministic counts differ between runs"
                f" ({'traced' if run.traced else 'untraced'} pass {pass_no})"
            )
            run.reasons = ["deterministic counts differ from an earlier run of the same scenario"]
        self.runs.append(run)
        return run

    # -- metrics -----------------------------------------------------------------

    def _first_pass(self) -> list:
        return [self.first[i].summary for i in sorted(self.first)]

    def _end_to_end_metrics(self) -> dict:
        first = self._first_pass()
        polls = sum(s.polls for s in first)
        latencies = [x for s in first for x in s.latencies]
        longest = [max(s.no_runner_stretches) for s in first]
        attempted, failed = self._tally()
        self._probe_setup()
        self.info = self._timed_figures(self.runs)
        self.info["setup_s_wall"] = statistics.median(wall for wall, _ in self.setup_samples)
        return {
            "github_requests_per_poll": (sum(s.github_requests for s in first) / polls, "req/poll"),
            "github_charged_requests_per_poll": (sum(s.github_charged_requests for s in first) / polls, "req/poll"),
            "kube_requests_per_poll": (sum(s.kube_requests for s in first) / polls, "req/poll"),
            "scale_up_latency_s_mean": (statistics.fmean(latencies) if latencies else 0.0, "sim_s"),
            "scale_up_latency_s_max": (max(latencies, default=0.0), "sim_s"),
            "credential_age_h_max": (statistics.fmean(longest) / 3600.0, "sim_h"),
            "scenario_pass_ratio": ((attempted - failed) / attempted, "ratio"),
            "setup_s": (statistics.median(cpu for _, cpu in self.setup_samples), "s"),
            "peak_rss_mb": (self.peak_rss_kb / 1024.0, "MB"),
        }

    @staticmethod
    def _timed_figures(runs: list[Measured]) -> dict:
        """Host-time figures of ``runs``: recorded, never bounded.

        Host speed on a shared VM drifts by a third between sets of runs, so
        these cannot hold a bound of 0.25, the largest BENCHMARK.json allows.
        """
        manager_cpu = [cpu for run in runs for _, _, cpu in run.polls]
        wall = [end - start for run in runs for start, end, _ in run.polls]
        return {
            "sim_polls_per_cpu_s": polls_per_second(runs, cpu=True),
            "sim_polls_per_s": polls_per_second(runs, cpu=False),
            "poll_cpu_ms_p50": percentile(manager_cpu, 50) * 1e3,
            "poll_cpu_ms_p90": percentile(manager_cpu, 90) * 1e3,
            "poll_cpu_ms_p99": percentile(manager_cpu, 99) * 1e3,
            "poll_ms_p50": percentile(wall, 50) * 1e3,
            "poll_ms_p99": percentile(wall, 99) * 1e3,
        }

    def _probe_setup(self) -> None:
        """Process start to first poll, in fresh interpreters, SETUP_PROBES times.

        Each probe reports the CPU seconds its process had used and the
        monotonic clock, both read at its first poll.
        """
        for _ in range(SETUP_PROBES):
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--seconds", "0", "--setup-probe",
            ]
            started = time.monotonic()
            probe = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=ROOT)
            fields = probe.stdout.split()
            if probe.returncode != 0 or len(fields) != 2:
                raise RuntimeError(f"set-up probe failed ({probe.returncode}): {probe.stderr.strip()[-2000:]}")
            at_first_poll, cpu = float(fields[0]), float(fields[1])
            self.setup_samples.append((at_first_poll - started, cpu))

    def _tally(self) -> tuple[int, int]:
        return len(self.runs), sum(1 for run in self.runs if run.reasons)

    def _layer_metrics(self) -> dict:
        stats = self.layer_stats
        counts = Counter()
        for c in self.first_counts.values():
            counts.update(c)
        first = self._first_pass()
        polls = sum(s.polls for s in first)
        decisions = Counter(reason for s in first for _, _, reason in s.decisions)
        d = stats.durations
        untraced_runs = [r for r in self.runs if not r.traced]
        untraced = polls_per_second(untraced_runs, cpu=True)
        traced = polls_per_second([r for r in self.runs if r.traced], cpu=True)
        self.info = self._timed_figures(untraced_runs)
        self.info["traced_polls_per_s"] = polls_per_second([r for r in self.runs if r.traced], cpu=False)
        us, ms = 1e6, 1e3

        def p(name: str, q: int) -> float:
            return percentile(d[name], q)

        return {
            "transport.request_us_p50": (p("transport.request", 50) * us, "us"),
            "transport.request_us_p99": (p("transport.request", 99) * us, "us"),
            "transport.self_us_p50": (percentile(stats.transport_self, 50) * us, "us"),
            "transport.requests_per_poll": (counts["transport.request"] / polls, "req/poll"),
            "transport.connects": (counts["transport.connects"], "count"),
            "github.list_outstanding_jobs_ms_p50": (p("github.list_outstanding_jobs", 50) * ms, "ms"),
            "github.list_outstanding_jobs_ms_p99": (p("github.list_outstanding_jobs", 99) * ms, "ms"),
            "github.self_us_per_poll": (stats.self_per_poll("github") * us, "us/poll"),
            "github.runs_requests_per_poll": (counts["github.runs_requests"] / polls, "req/poll"),
            "github.jobs_requests_per_poll": (counts["github.jobs_requests"] / polls, "req/poll"),
            "github.poll_attempts": (counts["github.poll_attempts"], "count"),
            "github.poll_failures": (counts["github.poll_failures"], "count"),
            "github.retries": (counts["github.retries"], "count"),
            "kube.read_scale_us_p50": (p("kube.read_scale", 50) * us, "us"),
            "kube.list_runner_pods_us_p50": (p("kube.list_runner_pods", 50) * us, "us"),
            "kube.write_annotation_per_poll": (counts["kube.write_annotation"] / polls, "writes/poll"),
            "kube.write_scale_per_poll": (counts["kube.write_scale"] / polls, "writes/poll"),
            "kube.read_annotations": (counts["kube.read_annotations"], "count"),
            "kube.failures": (counts["kube.failures"], "count"),
            "kube.self_us_per_poll": (stats.self_per_poll("kube") * us, "us/poll"),
            "reconciler.poll_cpu_ms_p50": (self.info["poll_cpu_ms_p50"], "cpu_ms"),
            "reconciler.poll_cpu_ms_p90": (self.info["poll_cpu_ms_p90"], "cpu_ms"),
            "reconciler.compute_desired_us_p50": (p("reconciler.compute_desired", 50) * us, "us"),
            "reconciler.self_us_per_poll": (stats.self_per_poll("reconciler") * us, "us/poll"),
            "reconciler.decisions_hold": (decisions["hold"], "count"),
            "reconciler.decisions_demand": (decisions["demand"], "count"),
            "reconciler.decisions_keepalive": (decisions["keepalive"], "count"),
            "reconciler.decisions_idle": (decisions["idle"], "count"),
            "service.starts": (counts["service.starts"], "count"),
            "service.start_to_first_poll_ms_p50": (percentile(stats.start_to_first_poll, 50) * ms, "ms"),
            "service.self_us_per_poll": (stats.self_per_poll("service") * us, "us/poll"),
            "virtual_clock.steps_per_poll": (counts["virtual_clock.steps"] / polls, "steps/poll"),
            "virtual_clock.quiescent_wait_us_p50": (p("virtual_clock.wait_quiescent", 50) * us, "us"),
            "virtual_clock.quiescent_wait_us_p99": (p("virtual_clock.wait_quiescent", 99) * us, "us"),
            "virtual_clock.wake_us_p50": (percentile(stats.wakes, 50) * us, "us"),
            "virtual_clock.voluntary_ctx_switches_per_poll": (self.ctx["voluntary"] / self.ctx["polls"], "1/poll"),
            "virtual_clock.involuntary_ctx_switches_per_poll": (self.ctx["involuntary"] / self.ctx["polls"], "1/poll"),
            "httpserver.parse_us_p50": (p("httpserver.parse", 50) * us, "us"),
            "httpserver.render_us_p50": (p("httpserver.render", 50) * us, "us"),
            "httpserver.self_us_per_poll": (stats.self_per_poll("httpserver") * us, "us/poll"),
            "fake_github.runs_handle_us_p50": (p("fake_github.handle.runs", 50) * us, "us"),
            "fake_github.runs_handle_us_p99": (p("fake_github.handle.runs", 99) * us, "us"),
            "fake_github.jobs_handle_us_p50": (p("fake_github.handle.jobs", 50) * us, "us"),
            "fake_github.jobs_handle_us_p99": (p("fake_github.handle.jobs", 99) * us, "us"),
            "fake_github.jobs_total": (counts["fake_github.jobs_total"], "count"),
            "fake_github.self_us_per_poll": (stats.self_per_poll("fake_github") * us, "us/poll"),
            "fake_kube.handle_us_p50": (p("fake_kube.handle", 50) * us, "us"),
            "fake_kube.self_us_per_poll": (stats.self_per_poll("fake_kube") * us, "us/poll"),
            "fake_runner.settle_calls_per_poll": (counts["fake_runner.settle"] / polls, "calls/poll"),
            "fake_runner.self_us_per_poll": (stats.self_per_poll("fake_runner") * us, "us/poll"),
            "driver.scenario_setup_ms_p50": (percentile(stats.setup, 50) * ms, "ms"),
            "driver.teardown_ms_p50": (percentile(stats.teardown, 50) * ms, "ms"),
            "oracle.ms_per_scenario": (statistics.median(self.oracle_s) * ms, "ms"),
            "scenario.generate_ms_per_scenario": (self.generate_s / len(self.scripts) * ms, "ms"),
            "trace.entries_per_poll": (sum(s.trace_entries for s in first) / polls, "entries/poll"),
            "tracing.untraced_polls_per_cpu_s": (untraced, "polls/cpu_s"),
            "tracing.traced_polls_per_cpu_s": (traced, "polls/cpu_s"),
            "tracing.overhead_ratio": (untraced / traced, "ratio"),
        }

    # -- output ------------------------------------------------------------------

    def _report(self, metrics: dict) -> int:
        attempted, failed = self._tally()
        correct = failed == 0 and not self.nondeterministic
        if failed:
            print(
                f"perfbench: {failed} OF {attempted} SCENARIO RUNS FAILED THE CORRECTNESS GATE "
                f"(scenario_fail_ratio {failed / attempted:.4f})",
                file=sys.stderr,
            )
            for run in [run for run in self.runs if run.reasons][:10]:
                print(f"  scenario {run.index} pass {run.pass_no}: {run.reasons[:3]}", file=sys.stderr)
        for line in self.nondeterministic[:10]:
            print(f"perfbench: NONDETERMINISM: {line}", file=sys.stderr)

        values = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
        provenance = self._provenance()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        stem = f"{self.args.workload}-seed{self.args.seed}-trace{self.args.trace}"
        record = {
            "provenance": provenance,
            "metrics": values,
            "recorded_only": self.info,
            "setup_samples_wall_cpu_s": self.setup_samples,
            "fingerprints": {str(i): self.first[i].fingerprint for i in sorted(self.first)},
            "fingerprints_stable": all(run.fingerprint == self.first[run.index].fingerprint for run in self.runs),
            "failures": [
                {"scenario": run.index, "pass": run.pass_no, "traced": run.traced, "reasons": run.reasons}
                for run in self.runs
                if run.reasons
            ],
        }
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
        if self.args.trace:
            self.layer_stats.write_spans(OUT_DIR / f"{stem}-spans.ndjson.gz")
        print("perfbench provenance: " + json.dumps(provenance, sort_keys=True))
        print("perfbench recorded only: " + json.dumps(self.info, sort_keys=True))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": values}))
        return 0

    def _provenance(self) -> dict:
        digest = hashlib.sha256()
        for i in sorted(self.first):
            digest.update(self.first[i].fingerprint.encode())
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "seconds": self.args.seconds,
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "loadavg_at_start": self.load_at_start,
            "cpu_steal_share": self.steal_share,
            "git_commit": _git_commit(),
            "src_sha256": _src_digest(),
            "scenarios": len(self.scripts),
            "scenario_runs": len(self.runs),
            "polls_first_pass": sum(s.polls for s in self._first_pass()),
            "polls_timed": sum(len(run.polls) for run in self.runs if not run.traced),
            "polls_traced": sum(len(run.polls) for run in self.runs if run.traced),
            "trace_fingerprint_digest": digest.hexdigest(),
        }


class _CapturedFakes:
    """Keeps the fake servers of the scenario being run, to read their logs.

    Replaces the driver's FakeGitHub and FakeKube names with factories that
    build the same objects; the only change is turning on FakeKube's own
    request-path log. Nothing here runs per request.
    """

    def __init__(self, driver):
        self._driver = driver
        self._classes = github_cls, kube_cls = driver.FakeGitHub, driver.FakeKube
        self.github = None
        self.kube = None

        def make_github(*args, **kwargs):
            self.github = github_cls(*args, **kwargs)
            return self.github

        def make_kube(*args, **kwargs):
            self.kube = kube_cls(*args, **kwargs)
            self.kube.keep_request_paths = True
            return self.kube

        driver.FakeGitHub = make_github
        driver.FakeKube = make_kube

    def uninstall(self) -> None:
        self._driver.FakeGitHub, self._driver.FakeKube = self._classes

    def clear(self) -> None:
        """Drop the logs this class turned on; the harness's accept threads
        outlive the scenario and keep the fakes reachable."""
        self.github.request_log.clear()
        self.kube.request_paths.clear()
        self.github = None
        self.kube = None


class LayerStats:
    """Span timings gathered over every traced scenario run."""

    SELF_LAYERS = (
        "transport", "github", "kube", "reconciler", "service",
        "httpserver", "fake_github", "fake_kube", "fake_runner",
    )

    def __init__(self):
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_total: Counter = Counter()
        self.transport_self: list[float] = []
        self.start_to_first_poll: list[float] = []
        self.wakes: list[float] = []
        self.setup: list[float] = []
        self.teardown: list[float] = []
        self.polls = 0
        self.spans: list = []

    def add(self, tracer, run: Measured, layers) -> None:
        selfs = layers.self_times(tracer.spans)
        for span in tracer.spans:
            self.durations[span.name].append(span.duration)
            if layers.SPAN_LAYERS[span.name] in self.SELF_LAYERS:
                self.self_total[layers.SPAN_LAYERS[span.name]] += selfs[span.span_id]
            if span.name == "transport.request":
                self.transport_self.append(selfs[span.span_id])
        self.start_to_first_poll += tracer.start_to_first_poll
        self.wakes += tracer.wakes
        if run.polls:
            self.setup.append(run.polls[0][0] - run.start)
        if tracer.last_stop is not None:
            self.teardown.append(run.end - tracer.last_stop)
        self.polls += run.summary.polls
        self.spans.append((run.index, run.pass_no, tracer.spans))

    def self_per_poll(self, layer: str) -> float:
        return self.self_total[layer] / self.polls if self.polls else 0.0

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for index, pass_no, spans in self.spans:
                for s in spans:
                    fh.write(
                        json.dumps(
                            {"scenario": index, "pass": pass_no, "id": s.span_id, "parent": s.parent,
                             "name": s.name, "start": s.start, "end": s.end, "poll": s.poll}
                        )
                        + "\n"
                    )


def polls_per_second(runs: list[Measured], cpu: bool) -> float:
    """Simulated polls per second spent inside run_scenario, over all runs.

    That covers driver stepping, the fake servers and each scenario's set-up
    and teardown, and leaves out the checks between scenarios. ``cpu``
    counts the process's CPU seconds, all threads; otherwise wall seconds.
    """
    seconds = sum(run.cpu if cpu else run.end - run.start for run in runs)
    return sum(run.summary.polls for run in runs) / seconds


def percentile(values: list[float], p: int) -> float:
    if not values:
        return 0.0
    if p == 50 or len(values) == 1:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _cpu_ticks() -> list[int]:
    """The aggregate CPU line of /proc/stat: user, nice, system, idle, ..., steal."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def _steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of the host's CPU time the hypervisor took away during the run."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total else None


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def setup_probe(workload: str, seed: int) -> int:
    """Child side of a set-up sample, printed at the first poll.

    Prints the monotonic clock and the CPU seconds this process has used
    since it started. The first reconcile_once then raises, which ends the
    manager thread; the driver stops the scenario and closes the fakes.
    """
    from runner_manager.harness import driver
    from runner_manager.reconciler import ReconcileLoop

    import workloads

    class FirstPoll(BaseException):
        pass

    def reconcile_once(loop, tick):
        print(time.monotonic(), time.process_time(), flush=True)
        raise FirstPoll

    default_hook = threading.excepthook
    threading.excepthook = lambda hook_args: None if hook_args.exc_type is FirstPoll else default_hook(hook_args)
    ReconcileLoop.reconcile_once = reconcile_once
    scripts = workloads.build(workload, seed)
    driver.run_scenario(scripts[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())
