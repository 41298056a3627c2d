#!/bin/sh
# Every registered scenario at CI-smoke scale, as the CI tests job runs
# it:
#
#     PYTHONPATH=src sh benchmarks/scenario_smoke.sh JSON_DIR [NAME...]
#
# Each scenario (only the NAMEs, if given) runs at --mode smoke through
# the process-parallel SweepRunner (--jobs 2), prints its tables, runs
# its shape checks and writes JSON_DIR/scenario_<name>.json;
# heavy_traffic also asserts its SLOSpec from inside the run, with its
# WAN flap schedule armed. fig3 runs with --profile, so the per-cell
# cProfile dumps (JSON_DIR/scenario_fig3.cells/) stay exercised. $PYTHON
# names the interpreter (default python3). benchmarks/census.py runs
# this script once per scenario as a production driver, so this is the
# one list of scenario-smoke flags.
set -eu
py=${PYTHON:-python3}
out=$1
shift
names=${*:-$($py -m repro.experiments --list-scenarios | cut -d' ' -f1)}
test -n "$names"
for name in $names; do
  profile=
  if [ "$name" = fig3 ]; then profile=--profile; fi
  $py -m repro.experiments --scenario "$name" --mode smoke --jobs 2 \
    $profile --json-dir "$out"
done
