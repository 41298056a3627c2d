"""CLI driver: ``python -m repro.experiments mc ...``.

Explore::

    python -m repro.experiments mc --scenario mc_small_healthy --depth 6
    python -m repro.experiments mc --scenario mc_evicted_while_down \\
        --depth 10 --expect-violation --trace-dir mc-traces

Replay an exported schedule::

    python -m repro.experiments mc --replay mc-traces/.../schedule_0.json

Exit status is 0 when the exploration matches expectations (no
violations, or -- with ``--expect-violation`` -- at least one) and 1
otherwise, so CI can gate on it directly. Traces are exported whenever
violations are found, or always with ``--always-export``.
"""

from __future__ import annotations

import argparse
import pathlib

from repro.mc.explorer import Explorer
from repro.mc.replay import replay_file
from repro.mc.trace import export_report
from repro.scenarios.mc import get_mc_target, mc_target_names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments mc",
        description="Bounded model checking over the deterministic "
                    "simulation core.")
    parser.add_argument("--scenario", metavar="NAME",
                        help="registered mc target (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list registered mc targets and exit")
    parser.add_argument("--depth", type=int, default=8,
                        help="exploration depth limit (default 8)")
    parser.add_argument("--max-states", type=int, default=4000,
                        help="hard cap on explored states (default 4000)")
    parser.add_argument("--max-branch", type=int, default=None,
                        help="cap the branch set per state (default: all)")
    parser.add_argument("--trace-dir", metavar="DIR", default="mc-traces",
                        help="where violation traces go (default "
                             "mc-traces/<scenario>)")
    parser.add_argument("--always-export", action="store_true",
                        help="export the trace even with no violations")
    parser.add_argument("--expect-violation", action="store_true",
                        help="invert the exit status: succeed only if the "
                             "exploration finds a violation (pinned-bug "
                             "targets)")
    parser.add_argument("--replay", metavar="SCHEDULE",
                        help="replay an exported schedule_<n>.json and "
                             "verify it reproduces the recorded state")
    args = parser.parse_args(argv)

    if args.list:
        for name in mc_target_names():
            target = get_mc_target(name)
            print(f"{name:24} {target.description}")
        return 0

    if args.replay:
        result = replay_file(args.replay)
        print(result.summary())
        return 0 if result.matched else 1

    if not args.scenario:
        parser.error("give --scenario, --replay, or --list")

    target = get_mc_target(args.scenario)
    explorer = Explorer(target, depth=args.depth,
                        max_states=args.max_states,
                        max_branch=args.max_branch)
    report = explorer.run()
    print(report.summary())
    shown = 10
    for violation in report.violations[:shown]:
        print(f"  [{violation.kind}] node {violation.node_id} "
              f"depth {violation.depth}: {violation.message}")
    if len(report.violations) > shown:
        print(f"  ... and {len(report.violations) - shown} more "
              f"(see violations.json)")
    if report.violations or args.always_export:
        out = export_report(
            report, pathlib.Path(args.trace_dir) / args.scenario)
        print(f"[trace exported to {out}]")
    found = bool(report.violations)
    if args.expect_violation:
        return 0 if found else 1
    return 1 if found else 0
