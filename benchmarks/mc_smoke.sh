#!/bin/sh
# Bounded model checking over the deterministic sim core, as the CI
# mc-smoke job runs it:
#
#     PYTHONPATH=src sh benchmarks/mc_smoke.sh [TRACE_DIR]
#
# A depth-bounded DFS over two small registered scenarios must report
# zero safety/liveness violations; so must the evicted-while-down
# recovery edge and the recovery x eviction-timing battery, each explored
# from a root with the probe handshake still in flight. The _noprobe
# variant keeps the pre-fix silent window pinned as an expect-violation
# target, and its exported schedule must replay. Traces (empty manifests
# for the clean targets) land in TRACE_DIR (default mc-traces). $PYTHON
# names the interpreter (default python3). benchmarks/census.py runs this
# script as one production driver, so this is the one list of mc-smoke
# commands.
set -eu
py=${PYTHON:-python3}
traces=${1:-mc-traces}

$py -m repro.experiments mc --list
for name in mc_small_healthy mc_small_classic; do
  $py -m repro.experiments mc --scenario "$name" --depth 5 \
    --max-states 500 --trace-dir "$traces"
done
for name in mc_evicted_while_down mc_recover_before_eviction \
    mc_recover_at_eviction mc_recover_after_eviction; do
  $py -m repro.experiments mc --scenario "$name" --depth 12 \
    --max-states 300 --always-export --trace-dir "$traces"
done
$py -m repro.experiments mc --scenario mc_evicted_while_down_noprobe \
  --depth 12 --max-states 300 --expect-violation --trace-dir "$traces"
$py -m repro.experiments mc \
  --replay "$traces/mc_evicted_while_down_noprobe/schedule_0.json"
