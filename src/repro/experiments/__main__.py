"""Command-line entry point for the experiment suite.

Usage::

    python -m repro.experiments rounds
    python -m repro.experiments fig3 --full
    python -m repro.experiments fig4
    python -m repro.experiments fig5 --full --jobs 4
    python -m repro.experiments ablations
    python -m repro.experiments all --jobs 8

    python -m repro.experiments --list-scenarios
    python -m repro.experiments --scenario flapping_wan --mode smoke
    python -m repro.experiments --scenario catchup --jobs 6 \\
        --json-dir benchmarks/results
    python -m repro.experiments --scenario fig3 --profile \\
        --json-dir /tmp/prof

    python -m repro.experiments mc --list
    python -m repro.experiments mc --scenario mc_small_healthy --depth 6

``--quick`` (the default) runs scaled-down configurations in seconds;
``--full`` runs the paper-scale configurations (each config dataclass's
defaults); ``--mode smoke`` is the CI-smoke scale. ``--jobs N`` fans the
sweep's cells out across N worker processes (results are identical to serial;
the pool persists across scenarios within one invocation).
``--profile`` with ``--jobs 1`` wraps the whole run in cProfile and
dumps sorted stats next to the JSON output; with ``--jobs N`` each
sweep cell profiles itself inside its worker and the raw ``.pstats``
dumps land in a per-scenario directory -- the profile-first workflow
the simulation-core speedup was driven by.
Every experiment is a registered scenario; the positional names are
aliases for ``--scenario`` kept for compatibility.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pathlib
import pstats
import sys
import time

from repro.scenarios.registry import get_scenario, run_scenario, scenario_names

#: Positional aliases (the historical CLI) and the 'all' bundle.
LEGACY_NAMES = ["rounds", "fig3", "fig4", "fig5", "ablations", "catchup"]

#: Stats lines kept in the --profile dump.
_PROFILE_LINES = 60


def _run_one(name: str, mode: str, jobs: int,
             json_dir: str | None, profile: bool = False) -> None:
    started = time.time()
    out_dir = pathlib.Path(json_dir) if json_dir is not None \
        else pathlib.Path.cwd()
    if profile and jobs == 1:
        # Serial: one whole-process profile sees every hot path.
        profiler = cProfile.Profile()
        profiler.enable()
        scenario, result = run_scenario(name, mode=mode, jobs=1)
        profiler.disable()
    elif profile:
        # Parallel: workers take the hot paths out of this process, so
        # each cell profiles itself inside its worker instead (one
        # .pstats file per cell, written by SweepRunner).
        from repro.scenarios import per_cell_profiles
        cells_dir = out_dir / f"scenario_{name}.cells"
        with per_cell_profiles(cells_dir):
            scenario, result = run_scenario(name, mode=mode, jobs=jobs)
    else:
        scenario, result = run_scenario(name, mode=mode, jobs=jobs)
    elapsed = time.time() - started
    if profile and jobs == 1:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"scenario_{name}.prof.txt"
        with path.open("w", encoding="utf-8") as stream:
            stats = pstats.Stats(profiler, stream=stream)
            stats.sort_stats("cumulative").print_stats(_PROFILE_LINES)
            stats.sort_stats("tottime").print_stats(_PROFILE_LINES)
        print(f"[cProfile stats written to {path}]")
    elif profile:
        print(f"[per-cell cProfile dumps written under {cells_dir}]")
    tables = scenario.tables(result)
    for index, table in enumerate(tables):
        print(table)
        if index + 1 < len(tables):
            print()
    scenario.check(result)
    if name == "ablations":
        print(f"[ablations done in {elapsed:.1f}s wall time]")
    else:
        print(f"[shape checks passed; {elapsed:.1f}s wall time]")
    if json_dir is not None:
        out_dir = pathlib.Path(json_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = scenario.as_dict(result)
        payload.update({"mode": mode, "jobs": jobs,
                        "wall_seconds": elapsed})
        path = out_dir / f"scenario_{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                                   default=str) + "\n", encoding="utf-8")
        print(f"[results written to {path}]")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "mc":
        # The model-checking subcommand has its own flag set.
        from repro.mc.cli import main as mc_main
        return mc_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation tables and run "
                    "registered scenarios.")
    parser.add_argument("experiment", nargs="?",
                        choices=LEGACY_NAMES + ["all"],
                        help="legacy experiment name (alias for "
                             "--scenario)")
    parser.add_argument("--scenario", metavar="NAME",
                        help="registered scenario name (see "
                             "--list-scenarios)")
    parser.add_argument("--list-scenarios", action="store_true",
                        help="list every registered scenario and exit")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the sweep (default 1; "
                             "results are identical to serial)")
    parser.add_argument("--json-dir", metavar="DIR",
                        help="also write per-scenario JSON results here")
    parser.add_argument("--profile", action="store_true",
                        help="profile the run: whole-process sorted stats "
                             "with --jobs 1, per-cell .pstats dumps (one "
                             "per sweep cell, written by the workers) "
                             "with --jobs N")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", default=True,
                      help="scaled-down configuration (default)")
    mode.add_argument("--full", action="store_true",
                      help="paper-scale configuration")
    mode.add_argument("--mode", choices=["quick", "full", "smoke"],
                      help="explicit mode (smoke = CI scale)")
    args = parser.parse_args(argv)

    if args.list_scenarios:
        for name in scenario_names():
            print(f"{name:16} {get_scenario(name).description}")
        return 0

    run_mode = args.mode if args.mode else ("full" if args.full else "quick")
    if args.scenario:
        names = [args.scenario]
    elif args.experiment == "all":
        names = ["rounds", "fig3", "fig4", "fig5", "ablations"]
    elif args.experiment:
        names = [args.experiment]
    else:
        parser.error("give an experiment name, --scenario, or "
                     "--list-scenarios")
    for name in names:
        _run_one(name, run_mode, args.jobs, args.json_dir,
                 profile=args.profile)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
