"""The host-speed reference: a fixed piece of pure-Python work, timed
between the slices of a trial.

The reference box is a small VM on a shared host whose speed changes by
15-40% for anything from a tenth of a second to minutes at a time (the
fastest of 200 back-to-back repeats of a 20 ms job ranges 14.9-21.0 ms
from one 10 s stretch to the next), so a raw host time says as much about
the neighbours as about the program. A reference pass costs about 2 ms,
does the kind of work the simulator does (heap pops and pushes, dict
reads and writes, a method call, float arithmetic) and none of the
program's code, so the ratio of a slice's time to the passes on either
side of it is what the program costs with the host's speed divided out.

A pass allocates three objects the garbage collector tracks, all before
its clock starts, so its time does not depend on how large a heap the
simulator has built.

Starting an interpreter and importing the program follows the host's
memory and file-system state more than its speed at running a loop (the
two correlate at 0.75), so import time has a reference of its own kind: a
fresh interpreter that imports a fixed dozen standard-library modules,
timed before and after every measured one.
"""

from __future__ import annotations

import subprocess
import sys
from heapq import heappop, heappush
from time import perf_counter

#: Seconds one pass takes on the reference box at its usual speed (the
#: median over 480 trials of all four workloads). Host times are reported
#: in seconds *at that speed*: ``time * REFERENCE_PASS_S / neighbouring
#: pass time``.
REFERENCE_PASS_S = 0.0016

#: Seconds a reference interpreter takes, start to exit, at that speed.
REFERENCE_START_S = 0.052

_EVENTS = 4000
#: Untimed iterations before the timed ones, so that a pass measures the
#: host's speed and not how much of its own data the slice before it
#: pushed out of the cache.
_LEAD_IN = 400
_SLOTS = 1024


class _Wheel:
    __slots__ = ("now", "fired", "table")

    def __init__(self) -> None:
        self.now = 0.0
        self.fired = 0
        self.table = {slot: 0.0 for slot in range(_SLOTS)}

    def fire(self, when: float, slot: int) -> float:
        self.now = when
        self.fired += 1
        table = self.table
        table[slot] = table[slot] + when
        return when + 0.0005 + (slot & 7) * 0.0001


_START = tuple(0.001 * k for k in range(256))


def reference_pass() -> float:
    """Time one pass of the reference work."""
    heap = list(_START)
    fire = _Wheel().fire
    mask = _SLOTS - 1
    for i in range(_LEAD_IN):
        heappush(heap, fire(heappop(heap), i & mask))
    start = perf_counter()
    for i in range(_EVENTS):
        heappush(heap, fire(heappop(heap), i & mask))
    return perf_counter() - start


def reference_start() -> float:
    """Time one reference interpreter, start to exit."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "import argparse, collections, dataclasses, enum, heapq, json, "
         "random, statistics, subprocess, typing"],
        stdout=subprocess.DEVNULL, check=True, timeout=60)
    return perf_counter() - start


def at_reference_speed(times, passes, usual=REFERENCE_PASS_S) -> float:
    """Sum of ``times``, each divided by the host's speed while it ran:
    ``passes[i]`` was timed just before ``times[i]`` and ``passes[i + 1]``
    just after it, and a pass usually takes ``usual`` seconds."""
    return sum(t * 2.0 * usual / (passes[i] + passes[i + 1])
               for i, t in enumerate(times))
