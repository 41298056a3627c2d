"""Compare two result files written by ``run.py --all``.

    python3 benchmarks/suite/compare.py A.json B.json

One row per workload and end-to-end metric: A's value, B's value, the
relative change (B - A) / A, the bound the catalogue fixes for it, and a verdict:

- ``worse``      B is worse than A by more than the bound;
- ``unresolved`` the run-to-run spread is wider than the bound, so the
                 numbers cannot tell a change from noise;
- ``ok``         otherwise.

Sim-time metrics are exact for a seed, so their spread is zero. For the
host-time metrics the spread is the interquartile range of the per-trial
B/A ratios (trial k of both files simulates the same seed, so the seed's
own variation cancels). The exit status is 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.suite import catalog  # noqa: E402

#: Host-time metric -> the per-trial series its spread is taken from.
SERIES = {"wall_s": "wall_s", "req_per_wall_s": "wall_s",
          "setup_s": "setup_s"}


def lookup(run: dict, name: str) -> float | None:
    for mode in ("timed", "traced"):
        value = run.get(mode, {}).get("metrics", {}).get(name)
        if value is not None:
            return value
    return None


def spread(a: dict, b: dict, name: str) -> float:
    series = SERIES.get(name)
    if series is None:
        return 0.0
    xs = a.get("timed", {}).get("trials", {}).get(series, [])
    ys = b.get("timed", {}).get("trials", {}).get(series, [])
    if len(xs) != len(ys) or len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles([y / x for x, y in zip(xs, ys)], n=4)
    return q3 - q1


def verdict(metric: catalog.Metric, a: float, b: float, noise: float
            ) -> tuple[float, str]:
    """``((B - A) / |A|, worse | unresolved | ok)``."""
    worsening = (b - a) if metric.better == "lower" else (a - b)
    relative = (b - a) / abs(a) if a else 0.0
    tolerance = max(metric.bound * abs(a), metric.abs_bound)
    if worsening > tolerance:
        return relative, "worse"
    if noise > max(metric.bound, metric.abs_bound / abs(a) if a else 0.0):
        return relative, "unresolved"
    return relative, "ok"


def rows(a: dict, b: dict):
    for workload in catalog.ALL:
        run_a = a["workloads"].get(workload)
        run_b = b["workloads"].get(workload)
        if run_a is None or run_b is None:
            continue
        for metric in catalog.END_TO_END:
            if workload not in metric.workloads:
                continue
            va, vb = lookup(run_a, metric.name), lookup(run_b, metric.name)
            if va is None or vb is None:
                continue
            change, status = verdict(metric, va, vb,
                                     spread(run_a, run_b, metric.name))
            yield workload, metric, va, vb, change, status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(pathlib.Path(p).read_text(encoding="utf-8"))
            for p in argv)
    print(f"{'workload':12s} {'metric':20s} {'A':>14s} {'B':>14s} "
          f"{'change':>8s} {'bound':>7s}  verdict")
    worse = 0
    for workload, metric, va, vb, change, status in rows(a, b):
        bound = (f"{metric.bound:.0%}" if metric.bound
                 else f"+{metric.abs_bound:g}" if metric.abs_bound else "0")
        print(f"{workload:12s} {metric.name:20s} {va:14.4f} {vb:14.4f} "
              f"{change:+8.1%} {bound:>7s}  {status}")
        worse += status == "worse"
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
