"""Timer-wheel / reference-heap scheduler equivalence.

The timer wheel replaced the binary heap on the claim that both honour
the exact same contract: events fire in ``(when, seq)`` order, the clock
reads the same at every firing, and cancellation/compaction never
changes either. This battery replays randomly generated
schedule/cancel/run traces through both schedulers and asserts the
observable histories are identical -- including traces where callbacks
schedule and cancel further events mid-run, events land exactly on
bucket boundaries, and far-future events sit in the overflow heap
across many wheel rotations.
"""

from __future__ import annotations

import random

import pytest

from heap_loop import HeapLoop, pending_count
from repro.sim.loop import _WHEEL_HORIZON, SimLoop


class Recorder:
    """Drives one SimLoop through a scripted trace, logging every fire."""

    def __init__(self, loop: SimLoop) -> None:
        self.loop = loop
        self.history: list[tuple] = []
        self.handles: list = []

    def fire(self, token: int, rearm_delay: float | None) -> None:
        self.history.append(("fire", token, round(self.loop.now(), 9)))
        if rearm_delay is not None:
            # Mid-run scheduling: the rearmed event must order
            # identically in both schedulers too.
            self.handles.append(self.loop.call_later(
                rearm_delay, self.fire, token + 1000, None))

    def apply(self, op: tuple) -> None:
        kind = op[0]
        loop = self.loop
        if kind == "schedule":
            _, delay, token, rearm = op
            self.handles.append(loop.call_later(delay, self.fire,
                                                token, rearm))
        elif kind == "cancel":
            _, index = op
            if self.handles:
                self.handles[index % len(self.handles)].cancel()
        elif kind == "run":
            _, duration = op
            loop.run_for(duration)
            self.history.append(("clock", round(loop.now(), 9),
                                 loop.events_processed))
        elif kind == "idle":
            executed = loop.run_until_idle(max_events=100_000)
            self.history.append(("idle", executed, round(loop.now(), 9),
                                 pending_count(loop)))


def random_trace(rng: random.Random, length: int) -> list[tuple]:
    """A random op sequence biased toward the consensus-load shape:
    lots of short timers, frequent cancels, occasional far-future
    events, and the odd full drain."""
    ops: list[tuple] = []
    token = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.55:
            if rng.random() < 0.8:
                delay = rng.uniform(0.0, 0.7)       # heartbeat/election band
            elif rng.random() < 0.5:
                delay = rng.uniform(0.9 * _WHEEL_HORIZON,
                                    1.1 * _WHEEL_HORIZON)  # boundary band
            else:
                delay = rng.uniform(2.0, 40.0)       # deep overflow
            if rng.random() < 0.1:
                delay = round(delay, 2)              # exact bucket edges
            rearm = rng.uniform(0.0, 0.5) if rng.random() < 0.2 else None
            ops.append(("schedule", delay, token, rearm))
            token += 1
        elif roll < 0.80:
            ops.append(("cancel", rng.randrange(0, 10_000)))
        elif roll < 0.97:
            ops.append(("run", rng.uniform(0.0, 2.5)))
        else:
            ops.append(("idle",))
    ops.append(("idle",))
    return ops


@pytest.mark.parametrize("seed", range(25))
def test_random_traces_fire_identically(seed):
    rng = random.Random(seed)
    trace = random_trace(rng, length=120)
    wheel = Recorder(SimLoop())
    heap = Recorder(HeapLoop())
    for op in trace:
        wheel.apply(op)
        heap.apply(op)
    assert wheel.history == heap.history
    assert pending_count(wheel.loop) == pending_count(heap.loop)
    assert wheel.loop.events_processed == heap.loop.events_processed


@pytest.mark.parametrize("seed", range(8))
def test_same_instant_bursts_keep_scheduling_order(seed):
    """Many events at identical instants (the call_soon pattern) must
    fire in exact scheduling order in both implementations."""
    rng = random.Random(1000 + seed)
    instants = sorted(rng.uniform(0.0, 3.0) for _ in range(10))
    histories = []
    for make_loop in (SimLoop, HeapLoop):
        loop = make_loop()
        seen: list[tuple] = []
        burst_rng = random.Random(2000 + seed)
        for i, at in enumerate(instants):
            for j in range(burst_rng.randrange(1, 5)):
                loop.call_at(at, lambda i=i, j=j:
                             seen.append((i, j, loop.now())))
        loop.run_until(5.0)
        histories.append(seen)
    assert histories[0] == histories[1]


def test_bucket_boundary_geometry_equivalence():
    """Event times and run deadlines straddling the same 10ms bucket, in
    every combination, with the wheel empty (overflow-only) and not --
    the geometry class the random traces are too coarse to pin."""
    offsets = [1.280, 1.281, 1.285, 1.2899999, 1.29, 1.295]
    for event_at in offsets:
        for deadline in offsets:
            results = []
            for make_loop in (SimLoop, HeapLoop):
                loop = make_loop()
                seen: list[float] = []
                loop.call_later(event_at, lambda: seen.append(loop.now()))
                loop.run_until(deadline)
                mid = list(seen)
                loop.run_until(5.0)
                results.append((mid, seen, pending_count(loop),
                                loop.events_processed))
            assert results[0] == results[1], (event_at, deadline)
    """A callback that re-schedules at the current instant lands behind
    already-queued same-instant events, on both schedulers."""
    histories = []
    for make_loop in (SimLoop, HeapLoop):
        loop = make_loop()
        seen: list[str] = []

        def chain(tag: str, depth: int) -> None:
            seen.append(f"{tag}{depth}@{loop.now()}")
            if depth < 3:
                loop.call_soon(chain, tag, depth + 1)

        loop.call_at(0.25, chain, "a", 0)
        loop.call_at(0.25, chain, "b", 0)
        loop.run_until(1.0)
        histories.append(seen)
    assert histories[0] == histories[1]


def test_cancel_inside_callback_equivalent():
    """Cancelling a not-yet-fired same-instant event from a callback is
    honoured identically (lazy cancellation in both structures)."""
    histories = []
    for make_loop in (SimLoop, HeapLoop):
        loop = make_loop()
        seen: list[str] = []
        victim = {}

        def killer() -> None:
            seen.append("killer")
            victim["h"].cancel()

        loop.call_at(0.5, killer)
        victim["h"] = loop.call_at(0.5, lambda: seen.append("victim"))
        loop.call_at(0.5, lambda: seen.append("after"))
        loop.run_until(1.0)
        histories.append(seen)
    assert histories[0] == histories[1] == ["killer", "after"]
