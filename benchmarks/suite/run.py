"""The repo benchmark's runner.

    python3 benchmarks/suite/run.py --workload W [--seed N] [--seconds S]
        [--trace 0|1] [--smoke] [--out F] [--spans F] [--write-signature]
    python3 benchmarks/suite/run.py --all [--seed N] [--smoke] [--out F]

A run is a fixed number of *trials*: each builds the system afresh from
a seed (``seed * 1000 + k``), bootstraps it, simulates the workload's
measurement window and drains. ``--seconds`` buys
``seconds / trial_host_s`` trials -- a committed constant per workload,
so the same arguments always measure the same simulations.

``--trace 0`` (the timed run): imports, trial 0 as an untimed warm-up,
then every trial seed once -- trial 0 must reproduce its warm-up run
exactly. Latency percentiles are taken over the pooled requests of all
seeds. Host times are taken slice by slice against a fixed reference loop
timed before and after each slice (``calib.py``), which divides out the
shared host's changes of speed; host-time metrics are means over seeds of
that. ``--trace 1``
(the traced run): three untraced trials for the exact counters and the
workload-specific metrics, the other rungs of the rate ladder, then
trial 0 again with ``trace_enabled=True`` under ``cProfile`` for the
per-layer numbers -- it must reproduce untraced trial 0 exactly, and no
end-to-end number is ever taken from it.

The last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); the exit status is non-zero when
the correctness gate fails. See README.md in this directory.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
from collections import Counter  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.suite import (calib, catalog, gate, layers, micro,  # noqa: E402
                              reduce)
from benchmarks.suite.workloads import (WORKLOADS, Workload,  # noqa: E402
                                        run_trial, single_site_ack_p50_ms)

IMPORT_S = time.perf_counter() - _T0

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
TRACED_TRIALS = 3
#: Fresh interpreters the import time is the median of.
IMPORT_SAMPLES = 9
SIGNATURES = SUITE / "signatures.json"


def trial_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


# ----------------------------------------------------------------------
# One measured trial
# ----------------------------------------------------------------------
def measure(workload: Workload, seed: int, *, rate: float | None = None,
            smoke: bool = False, trace: bool = False, profiler=None,
            settled: bool = True, keep: bool = False) -> dict:
    """Run one trial, reduce it, gate it. ``keep`` retains the raw trial
    (system and ledger) for the trace reducers."""
    trial = run_trial(workload, seed, rate=rate, trace=trace, smoke=smoke,
                      profiler=profiler)
    samples = reduce.samples(trial)
    deltas = reduce.counter_deltas(trial)
    problems, lost = gate.check(trial, deltas, settled=settled)
    problems = [f"seed {seed}: {p}" for p in problems]
    samples["failed"] += lost
    samples["acked_lost"] = lost
    if trial.over_budget:
        problems.append(f"seed {seed}: event budget exceeded "
                        f"({workload.events_per_sim_s}/sim-s)")
    result = {"rate": trial.rate, "samples": samples, "deltas": deltas,
              "signature": reduce.signature(trial), "problems": problems,
              "over_budget": trial.over_budget,
              "host": {"build_s": trial.build_s,
                       "bootstrap_s": trial.bootstrap_s,
                       "raw_wall_s": sum(trial.slices),
                       "cpu_s": trial.cpu_s}}
    if trial.slice_passes:
        # Host times with the host's speed divided out (calib.py).
        result["host"]["setup_s"] = calib.at_reference_speed(
            [trial.build_s, trial.bootstrap_s], trial.setup_passes)
        result["host"]["wall_s"] = calib.at_reference_speed(
            trial.slices, trial.slice_passes)
    if keep:
        result["trial"] = trial
    return result


def exact_part(result: dict) -> dict:
    """What two trials of one seed must agree on, bit for bit."""
    return {key: result[key] for key in ("samples", "deltas", "signature")}


def rung_passes(workload: Workload, result: dict) -> bool:
    s, limit = result["samples"], workload.limit
    sim = reduce.sim_metrics(s)
    if result["over_budget"] or result["problems"]:
        return False
    if sim["failed_fraction"] > 0.01:
        return False
    for bound, name in ((limit.ack_p99_ms, "sim_ack_p99_ms"),
                        (limit.read_p99_ms, "sim_read_p99_ms"),
                        (limit.global_p99_ms, "sim_global_p99_ms")):
        if bound is not None and sim[name] > bound:
            return False
    slack = workload.backlog_slack
    return (s["backlog_end"] <= s["backlog_mid"] + slack
            and s["global_backlog_end"] <= s["global_backlog_mid"] + slack)


def seeds_for(workload: Workload, seconds: float, smoke: bool) -> int:
    """Distinct trial seeds a timed run measures (the warm-up trial is
    paid for out of the same ``seconds``)."""
    if smoke:
        return 2
    return max(2, round(seconds / workload.trial_host_s) - 1)


def import_seconds(samples: int) -> float:
    """Median over fresh interpreters of the time to start and import
    what this one did, each scaled by the reference interpreters timed
    before and after it."""
    code = (f"import sys; sys.path[:0] = [{str(ROOT)!r}, "
            f"{str(ROOT / 'src')!r}]; import benchmarks.suite.run")
    starts = [calib.reference_start()]
    times = []
    for _ in range(samples):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                       stdout=subprocess.DEVNULL, check=True, timeout=60)
        times.append(time.perf_counter() - began)
        starts.append(calib.reference_start())
    return statistics.median(
        calib.at_reference_speed([t], starts[i:i + 2],
                                 calib.REFERENCE_START_S)
        for i, t in enumerate(times))


# ----------------------------------------------------------------------
# Timed run (--trace 0)
# ----------------------------------------------------------------------
def timed_run(workload: Workload, seed: int, seconds: float,
              smoke: bool) -> dict:
    seeds = [trial_seed(seed, k)
             for k in range(seeds_for(workload, seconds, smoke))]
    # Untimed warm-up: the first in-process trial runs up to 40% slow.
    warm_up = measure(workload, seeds[0], smoke=smoke)
    trials = [measure(workload, s, smoke=smoke) for s in seeds]
    problems = [p for t in trials for p in t["problems"]]
    if exact_part(trials[0]) != exact_part(warm_up):
        problems.append(f"seed {seeds[0]}: the second run of the seed "
                        f"diverged from the first")
    wall = [t["host"]["wall_s"] for t in trials]
    setup = [t["host"]["setup_s"] for t in trials]
    pooled = reduce.pool([t["samples"] for t in trials])
    sim = reduce.sim_metrics(pooled)
    import_s = import_seconds(2 if smoke else IMPORT_SAMPLES)
    metrics = {
        "setup_s": import_s + statistics.median(setup),
        "wall_s": statistics.fmean(wall),
        "req_per_wall_s": pooled["completed"] / sum(wall),
        "peak_rss_mb": peak_rss_mb(),
        **{name: sim[name] for name in ("sim_ack_p50_ms", "sim_ack_p99_ms",
                                        "sim_goodput_rps",
                                        "failed_fraction")},
    }
    return {"mode": "timed", "metrics": metrics, "problems": problems,
            "attempted": pooled["attempted"], "failed": pooled["failed"],
            "samples": reduce.sample_counts(pooled),
            "signature": trials[0]["signature"],
            "trials": {"wall_s": wall, "setup_s": setup,
                       "raw_wall_s": [t["host"]["raw_wall_s"]
                                      for t in trials],
                       "cpu_s": [t["host"]["cpu_s"] for t in trials],
                       "import_s": import_s}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Traced run (--trace 1)
# ----------------------------------------------------------------------
def traced_run(workload: Workload, seed: int, smoke: bool,
               spans_path: str | None) -> dict:
    plain = [measure(workload, trial_seed(seed, k), smoke=smoke)
             for k in range(2 if smoke else TRACED_TRIALS)]
    problems = [p for t in plain for p in t["problems"]]
    pooled = reduce.pool([t["samples"] for t in plain])
    sim = reduce.sim_metrics(pooled)
    metrics = {m.name: sim.get(m.name, 0.0) for m in catalog.END_TO_END
               if m.name not in catalog.CONTRACT_E2E}
    metrics.update(reduce.counter_metrics(
        sum((t["deltas"] for t in plain), Counter()), pooled["completed"]))
    metrics.update({name: sim[name] for name in sim if "." in name})
    metrics["craft.global_backlog_final"] = pooled["global_unapplied_final"]
    metrics["smr.acked_lost"] = pooled["acked_lost"]
    metrics["consensus.final_commit_index"] = plain[0]["signature"][
        "consensus.final_commit_index"]
    for key in ("build_s", "bootstrap_s"):
        metrics[f"harness.{key}"] = statistics.median(
            t["host"][key] for t in plain)
    metrics["host.cpu_s"] = statistics.median(
        t["host"]["cpu_s"] for t in plain)
    if workload.name == "lan_closed":
        metrics["consensus.single_site_ack_p50_ms"] = single_site_ack_p50_ms(
            seed, 50 if smoke else 200)

    ladder = {}
    for rate in workload.ladder:
        rung = plain[0] if rate == workload.rate else measure(
            workload, trial_seed(seed, 0), rate=rate, smoke=smoke,
            settled=False)
        rung_sim = reduce.sim_metrics(rung["samples"])
        ladder[f"{rate:g}"] = {
            "passed": rung_passes(workload, rung),
            "over_budget": rung["over_budget"],
            "problems": rung["problems"],
            **{k: rung_sim[k] for k in (
                "sim_ack_p99_ms", "sim_read_p99_ms", "sim_global_p99_ms",
                "failed_fraction")},
            **{k: rung["samples"][k] for k in (
                "backlog_mid", "backlog_end", "global_backlog_mid",
                "global_backlog_end")}}
        # An overloaded rung may fail its limit, never the safety gate.
        problems += [p for p in rung["problems"] if "event budget" not in p]
    passing = [float(r) for r, v in ladder.items() if v["passed"]]
    metrics["sim_max_rate_rps"] = max(passing, default=0.0)

    profiler = cProfile.Profile()
    hot = measure(workload, trial_seed(seed, 0), smoke=smoke, trace=True,
                  profiler=profiler, keep=True)
    problems += hot["problems"]
    if exact_part(hot) != exact_part(plain[0]):
        problems.append("the traced trial diverged from the untraced one")
    trial = hot.pop("trial")
    metrics.update(layers.trace_metrics(trial, hot["samples"]["completed"]))
    metrics.update(layers.profile_layers(profiler))
    metrics["host.trace_overhead_x"] = (hot["host"]["raw_wall_s"]
                                        / plain[0]["host"]["raw_wall_s"])
    chains = layers.request_spans(trial)
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as handle:
            for chain in chains:
                handle.write(json.dumps(chain) + "\n")
    for name in catalog.CONTRACT_PER_LAYER:
        metrics.setdefault(name, 0.0)      # layer not exercised here
    return {"mode": "traced", "metrics": metrics, "problems": problems,
            "attempted": pooled["attempted"], "failed": pooled["failed"],
            "samples": reduce.sample_counts(pooled),
            "signature": plain[0]["signature"], "ladder": ladder,
            "phase_p50_ms": layers.phase_medians(chains),
            "span_chains": len(chains),
            "trace_events": len(trial.ctx.system.trace)}


# ----------------------------------------------------------------------
# layer_micro
# ----------------------------------------------------------------------
def micro_run(smoke: bool) -> dict:
    ns_per_op, total_s, ops = micro.run_loops(smoke)
    metrics = {"setup_s": IMPORT_S, "wall_s": total_s,
               "req_per_wall_s": ops / total_s, "peak_rss_mb": peak_rss_mb(),
               **ns_per_op}
    return {"mode": "timed", "metrics": metrics, "problems": [],
            "attempted": ops, "failed": 0}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def check_signature(name: str, seed: int, got: dict, write: bool) -> None:
    """Print a diff against the committed run signature; a changed
    signature means protocol behaviour changed, which is worth a look
    but is not by itself an error."""
    book = json.loads(SIGNATURES.read_text(encoding="utf-8")) \
        if SIGNATURES.exists() else {}
    want = book.get(name, {}).get(str(seed))
    if write:
        book.setdefault(name, {})[str(seed)] = got
        SIGNATURES.write_text(json.dumps(book, indent=2, sort_keys=True)
                              + "\n", encoding="utf-8")
        print(f"signature[{name} seed={seed}] written")
    elif want is None:
        print(f"signature[{name} seed={seed}] none committed: {got}")
    elif want == got:
        print(f"signature[{name} seed={seed}] matches")
    else:
        print(f"signature[{name} seed={seed}] CHANGED -- protocol "
              f"behaviour differs from the committed baseline:")
        for key in sorted(want.keys() | got.keys()):
            if want.get(key) != got.get(key):
                print(f"    {key}: committed {want.get(key)!r}, "
                      f"this run {got.get(key)!r}")


def report(name: str, seed: int, detail: dict, contract: tuple[str, ...]
           ) -> dict:
    """Print every metric by name with its unit; return the result line."""
    metrics = detail["metrics"]
    print(f"# {name} seed={seed} mode={detail['mode']} "
          f"attempted={detail['attempted']} failed={detail['failed']}")
    print(f"# samples {detail.get('samples', {})}")
    for key, value in metrics.items():
        print(f"{key:38s} {value:16.6f} {catalog.BY_NAME[key].unit}")
    for rate, rung in detail.get("ladder", {}).items():
        print(f"# ladder {rate} req/s: "
              f"{'pass' if rung['passed'] else 'FAIL'}"
              f"{' (over event budget)' if rung['over_budget'] else ''}")
    for problem in detail["problems"]:
        print(f"INCORRECT: {problem}")
    return {"correct": not detail["problems"],
            "attempted": int(detail["attempted"]),
            "failed": int(detail["failed"]),
            "metrics": {key: {"value": metrics[key],
                              "unit": catalog.BY_NAME[key].unit}
                        for key in contract}}


def environment(seed: int, smoke: bool) -> dict:
    return {"seed": seed, "smoke": smoke, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def run_one(args) -> int:
    name, seed = args.workload, args.seed
    if name == "layer_micro":
        detail = micro_run(args.smoke)
        contract = tuple(detail["metrics"])
    else:
        workload = WORKLOADS[name]
        if args.trace:
            detail = traced_run(workload, seed, args.smoke, args.spans)
            contract = catalog.CONTRACT_PER_LAYER
        else:
            detail = timed_run(workload, seed, args.seconds, args.smoke)
            contract = catalog.CONTRACT_E2E
        if not args.smoke:
            check_signature(name, seed, detail["signature"],
                            args.write_signature)
    line = report(name, seed, detail, contract)
    if args.out:
        payload = {"workload": name, "env": environment(seed, args.smoke),
                   **detail}
        pathlib.Path(args.out).write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args) -> int:
    """Every workload, timed then traced, one fresh child process at a
    time (never two at once: per-workload RSS and allocator state, and
    the reference box has two cores)."""
    out = pathlib.Path(args.out or SUITE / "results" / "latest.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    merged = {"env": environment(args.seed, args.smoke), "workloads": {}}
    status = 0
    for name in catalog.ALL:
        for trace in ((0,) if name == "layer_micro" else (0, 1)):
            part = out.with_name(f".{out.stem}.{name}.{trace}.json")
            command = [sys.executable, str(SUITE / "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--out", str(part)]
            if args.smoke:
                command.append("--smoke")
            if args.write_signature and trace == 0:
                command.append("--write-signature")
            print(f"== {name} --trace {trace}", flush=True)
            done = subprocess.run(command, cwd=ROOT, timeout=600)
            status = status or done.returncode
            if part.exists():
                detail = json.loads(part.read_text(encoding="utf-8"))
                merged["workloads"].setdefault(name, {})[
                    detail["mode"]] = detail
                part.unlink()
    out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=catalog.ALL + ("wan_leave", "mesh_flap_2s"))
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny windows; numbers are not meaningful")
    parser.add_argument("--out", help="write the full detail JSON here")
    parser.add_argument("--spans", help="traced runs: write one request "
                        "span chain per line (JSONL) here")
    parser.add_argument("--write-signature", action="store_true",
                        help="record this run's signature in "
                        "signatures.json instead of diffing against it")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
