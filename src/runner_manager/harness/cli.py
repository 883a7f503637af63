"""Command line front end: ``harness run --script scenario.yaml --seed 7``."""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .driver import run_scenario
from .monitors import violations
from .scenario import generate_random_script, load_script


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="harness", description="Run manager scenarios on simulated time.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario script against the real manager")
    run_p.add_argument("--script", help="YAML/JSON scenario file (omit to generate one from --seed)")
    run_p.add_argument("--seed", type=int, default=0, help="seed for generated scenarios")
    run_p.add_argument("--trace-out", help="write the trace as newline-delimited JSON")
    run_p.add_argument(
        "--check-oracle",
        action="store_true",
        help="compare decisions, scale writes and the final annotations with the oracle, and judge every monitor",
    )

    args = parser.parse_args(argv)

    try:
        script = load_script(args.script) if args.script else generate_random_script(args.seed)
    except (OSError, ValueError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2

    result = run_scenario(script)

    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.writelines(result.trace.lines())

    summary = {
        "horizon": script.horizon,
        "events": len(script.events),
        "decisions": len(result.decisions),
        "decisions_by_reason": dict(Counter(reason for _, _, reason in result.decisions)),
        "scale_writes": result.writes,
        "github_requests": result.github_api_requests,
        "github_charged_requests": result.github_charged_requests,
        "kube_requests": result.kube_requests,
        "scenario_failed": result.scenario_failed,
        "failure_reasons": result.failure_reasons,
    }

    if args.check_oracle:
        found = violations(script, result)
        diff = found.pop("oracle")
        summary["oracle_match"] = not diff
        if diff:
            summary["oracle_first_diff"] = diff[0]
        summary["violations"] = {name: entries for name, entries in found.items() if entries}

    print(json.dumps(summary, indent=2))
    return 1 if result.scenario_failed or summary.get("oracle_match") is False or summary.get("violations") else 0


if __name__ == "__main__":
    sys.exit(main())
