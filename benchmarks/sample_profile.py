"""A ``SIGPROF`` line sampler over the timed part of suite trials.

    python3 benchmarks/sample_profile.py --workload W [--trials N] [--top K]
    python3 benchmarks/sample_profile.py --workload W --heap [--trials N]

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

``--heap`` prints memory instead of time: ``tracemalloc`` traces each
trial from before its build, and at ``disable()`` -- the end of the
window and drain, with the whole system still live -- the heap is grouped
by the file and the line that allocated each block, in MB and blocks per
trial (averaged over ``--trials``). A memory claim cites these rows the
way a time claim cites the sampler's; the untraced ``run.py``
``peak_rss_mb`` judges it.
"""

from __future__ import annotations

import argparse
import collections
import pathlib
import signal
import sys
import tracemalloc

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


class HeapSampler:
    """Sums the live heap at ``disable()`` over trials, by (file, line).
    ``tracemalloc`` must be tracing since the trial began."""

    def __init__(self) -> None:
        self.sizes: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self.trials = 0

    def enable(self) -> None:
        """Nothing to arm: what build and bootstrap left live counts."""

    def disable(self) -> None:
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(False, __file__)])
        for stat in snapshot.statistics("lineno"):
            frame = stat.traceback[0]
            self.sizes[(frame.filename, frame.lineno)] += stat.size
            self.counts[(frame.filename, frame.lineno)] += stat.count
        self.trials += 1


def report_heap(heap: HeapSampler, top: int) -> None:
    trials = heap.trials or 1
    total = sum(heap.sizes.values()) / trials
    print(f"# {total / 2**20:.2f} MB live per trial at the end of the "
          f"window ({heap.trials} trials)")
    for title, key in (("file", lambda k: k[0]),
                       ("line", lambda k: f"{k[0]}:{k[1]}")):
        sizes: collections.Counter = collections.Counter()
        counts: collections.Counter = collections.Counter()
        for where, size in heap.sizes.items():
            sizes[key(where)] += size
            counts[key(where)] += heap.counts[where]
        print(f"## by {title}")
        for name, size in sizes.most_common(top):
            shown = name.replace(str(ROOT), ".")
            print(f"{size / trials / 2**20:8.2f} MB "
                  f"{counts[name] / trials:9.0f}  {shown}")


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
    parser.add_argument("--heap", action="store_true",
                        help="the live heap at the end of the window by "
                             "file and line (tracemalloc), not CPU time")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.suite.workloads import WORKLOADS, run_trial
    workload = WORKLOADS[args.workload]
    run_trial(workload, args.seed * 1000)  # untimed warm-up, as run.py does
    if args.heap:
        heap = HeapSampler()
        for k in range(args.trials):
            tracemalloc.start()
            try:
                run_trial(workload, args.seed * 1000 + k, profiler=heap)
            finally:
                tracemalloc.stop()
        report_heap(heap, args.top)
        return 0
    sampler = Sampler()
    for k in range(args.trials):
        run_trial(workload, args.seed * 1000 + k, profiler=sampler)
    report(sampler.samples, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
