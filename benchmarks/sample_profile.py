"""A ``SIGPROF`` line sampler over the timed part of suite trials.

    python3 benchmarks/sample_profile.py --workload W [--trials N] [--top K]

``cProfile`` + ``pstats`` have two blind spots on this codebase: C slot
wrappers such as ``object.__setattr__`` (one per field of every frozen
dataclass built) are not profiled calls at all, and every ``exec``-built
function compiled under one filename collapses into one ``pstats`` row.
This sampler has neither: ``ITIMER_PROF`` fires every millisecond of CPU
time and the handler charges the Python line then executing -- C work
included, to the line that called it. It is armed by ``enable()`` /
``disable()``, the same pair ``run_trial(..., profiler=...)`` calls around
exactly what ``wall_s`` times. Shares locate candidates; the untraced
``run.py`` ``wall_s`` judges them.
"""

from __future__ import annotations

import argparse
import collections
import pathlib
import signal
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


class Sampler:
    """Counts ``(file, function, line)`` of the running frame per tick."""

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        self.samples: collections.Counter = collections.Counter()

    def _tick(self, signum, frame) -> None:
        code = frame.f_code
        self.samples[(code.co_filename, code.co_name, frame.f_lineno)] += 1

    def enable(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def disable(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)  # a tick may be pending


def report(samples: collections.Counter, top: int) -> None:
    total = sum(samples.values()) or 1
    print(f"# {total} samples")
    for title, key in (("file", lambda k: k[0]),
                       ("function", lambda k: f"{k[0]}:{k[1]}"),
                       ("line", lambda k: f"{k[0]}:{k[2]} {k[1]}")):
        grouped: collections.Counter = collections.Counter()
        for where, count in samples.items():
            grouped[key(where)] += count
        print(f"## by {title}")
        for name, count in grouped.most_common(top):
            share = 100 * count / total
            print(f"{share:6.2f}%  {name.replace(str(ROOT), '.')}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.suite.workloads import WORKLOADS, run_trial
    workload = WORKLOADS[args.workload]
    run_trial(workload, args.seed * 1000)  # untimed warm-up, as run.py does
    sampler = Sampler()
    for k in range(args.trials):
        run_trial(workload, args.seed * 1000 + k, profiler=sampler)
    report(sampler.samples, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
