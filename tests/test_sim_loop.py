"""Tests for the simulation loop (clock + scheduler)."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.loop import MS, Handle, SimLoop


def pending_count(loop: SimLoop) -> int:
    """Scheduled, non-cancelled callbacks left in the loop's heap."""
    return len(loop._heap) - loop._dead


def test_time_starts_at_zero():
    assert SimLoop().now() == 0.0


def test_ms_constant():
    assert 100 * MS == pytest.approx(0.1)


def test_call_later_runs_at_offset():
    loop = SimLoop()
    seen = []
    loop.call_later(0.5, lambda: seen.append(loop.now()))
    loop.run_until(1.0)
    assert seen == [0.5]


def test_call_at_absolute_time():
    loop = SimLoop()
    seen = []
    loop.call_at(0.25, lambda: seen.append(loop.now()))
    loop.run_until(1.0)
    assert seen == [0.25]


def test_run_until_advances_clock_even_without_events():
    loop = SimLoop()
    loop.run_until(3.0)
    assert loop.now() == 3.0


def test_run_for_is_relative():
    loop = SimLoop()
    loop.run_for(1.0)
    loop.run_for(0.5)
    assert loop.now() == pytest.approx(1.5)


def test_events_run_in_time_order():
    loop = SimLoop()
    seen = []
    loop.call_later(0.3, lambda: seen.append("c"))
    loop.call_later(0.1, lambda: seen.append("a"))
    loop.call_later(0.2, lambda: seen.append("b"))
    loop.run_until(1.0)
    assert seen == ["a", "b", "c"]


def test_same_time_events_run_in_scheduling_order():
    loop = SimLoop()
    seen = []
    for tag in ("first", "second", "third"):
        loop.call_later(0.1, lambda t=tag: seen.append(t))
    loop.run_until(1.0)
    assert seen == ["first", "second", "third"]


def test_callback_args_passed():
    loop = SimLoop()
    seen = []
    loop.call_later(0.1, seen.append, 42)
    loop.run_until(1.0)
    assert seen == [42]


def test_cancel_prevents_execution():
    loop = SimLoop()
    seen = []
    handle = loop.call_later(0.1, lambda: seen.append(1))
    handle.cancel()
    loop.run_until(1.0)
    assert seen == []


def test_cancel_is_idempotent():
    loop = SimLoop()
    seen = []
    handle = loop.call_later(0.1, lambda: seen.append(1))
    handle.cancel()
    handle.cancel()
    loop.run_until(1.0)
    assert seen == []


def test_events_scheduled_during_run_execute():
    loop = SimLoop()
    seen = []

    def outer():
        loop.call_later(0.2, lambda: seen.append("inner"))

    loop.call_later(0.1, outer)
    loop.run_until(1.0)
    assert seen == ["inner"]


def test_events_beyond_deadline_stay_queued():
    loop = SimLoop()
    seen = []
    loop.call_later(2.0, lambda: seen.append(1))
    loop.run_until(1.0)
    assert seen == []
    loop.run_until(2.5)
    assert seen == [1]


def test_negative_delay_rejected():
    loop = SimLoop()
    with pytest.raises(SimulationError):
        loop.call_later(-0.1, lambda: None)


def test_scheduling_in_past_rejected():
    loop = SimLoop()
    loop.run_until(1.0)
    with pytest.raises(SimulationError):
        loop.call_at(0.5, lambda: None)


def test_run_until_backwards_rejected():
    loop = SimLoop()
    loop.run_until(1.0)
    with pytest.raises(SimulationError):
        loop.run_until(0.5)


def test_run_until_idle_drains_everything():
    loop = SimLoop()
    seen = []
    loop.call_later(5.0, lambda: seen.append(1))
    loop.call_later(10.0, lambda: seen.append(2))
    executed = loop.run_until_idle()
    assert executed == 2
    assert seen == [1, 2]
    assert loop.now() == 10.0


def test_run_until_idle_event_cap():
    loop = SimLoop()

    def rearm():
        loop.call_later(1.0, rearm)

    loop.call_later(1.0, rearm)
    with pytest.raises(SimulationError):
        loop.run_until_idle(max_events=50)


def test_call_soon_runs_at_current_instant():
    loop = SimLoop()
    seen = []
    loop.run_until(1.0)
    loop.call_soon(lambda: seen.append(loop.now()))
    loop.run_until(1.0)
    assert seen == [1.0]


def test_pending_count_excludes_cancelled():
    loop = SimLoop()
    loop.call_later(1.0, lambda: None)
    handle = loop.call_later(2.0, lambda: None)
    handle.cancel()
    assert pending_count(loop) == 1


def test_events_processed_counter():
    loop = SimLoop()
    for _ in range(3):
        loop.call_later(0.1, lambda: None)
    loop.run_until(1.0)
    assert loop.events_processed == 3


def test_reentrant_run_rejected():
    loop = SimLoop()

    def nested():
        loop.run_until(5.0)

    loop.call_later(0.1, nested)
    with pytest.raises(SimulationError):
        loop.run_until(1.0)


def test_pending_count_is_live_counter():
    """The cancelled-entry count tracks pushes, pops, and cancels."""
    loop = SimLoop()
    handles = [loop.call_later(float(i + 1), lambda: None)
               for i in range(10)]
    assert pending_count(loop) == 10
    for handle in handles[:4]:
        handle.cancel()
        handle.cancel()  # idempotent: must not double-decrement
    assert pending_count(loop) == 6
    loop.run_until(20.0)
    assert pending_count(loop) == 0


def test_cancel_after_run_does_not_corrupt_count():
    loop = SimLoop()
    handle = loop.call_later(1.0, lambda: None)
    loop.call_later(2.0, lambda: None)
    loop.run_until(1.5)  # pops the first handle
    handle.cancel()      # cancelling an executed handle is a no-op
    assert pending_count(loop) == 1


def test_heap_compacts_when_cancellations_dominate():
    loop = SimLoop()
    doomed = [loop.call_later(float(i + 1), lambda: None)
              for i in range(100)]
    keep = [loop.call_later(200.0 + i, lambda: None) for i in range(10)]
    for handle in doomed:
        handle.cancel()
    # More than half the heap was cancelled: it must have been compacted
    # (dead entries dropped), not left to linger at full size.
    assert len(loop._heap) < len(doomed) + len(keep) - 40
    assert pending_count(loop) == 10
    loop.run_until(300.0)
    assert loop.events_processed == 10


@pytest.mark.parametrize("first_doomed, spacing", [(50.0, 1.0), (1.01, 0.01)],
                         ids=["heap", "wheel"])
def test_compaction_during_run_keeps_heap_alias_valid(first_doomed, spacing):
    """Compaction triggered from inside a callback must not strand the
    running loop on a stale heap list.

    The case ids keep the names of the scheduler's former far-future
    overflow heap and near-term timer wheel: in ``heap`` the cancelled
    events lie long after the survivor, in ``wheel`` they are packed
    between the cancelling callback and the survivor."""
    loop = SimLoop()
    doomed = [loop.call_later(first_doomed + i * spacing, lambda: None)
              for i in range(80)]
    seen = []

    def cancel_all():
        for handle in doomed:
            handle.cancel()

    loop.call_later(1.0, cancel_all)
    loop.call_later(2.0, lambda: seen.append(loop.now()))
    loop.run_until(100.0)
    assert seen == [2.0]
    assert pending_count(loop) == 0


def test_overflow_event_sharing_deadline_bucket_fires():
    """A lone event due 4 ms before the run's deadline fires in that
    run (1.285 <= 1.289)."""
    loop = SimLoop()
    seen = []
    loop.call_later(1.285, lambda: seen.append(loop.now()))
    loop.run_until(1.289)
    assert seen == [1.285]
    assert pending_count(loop) == 0


def test_deep_overflow_jump_in_run_until_idle():
    """run_until_idle over one far-future event (the only other one
    cancelled) fires it and leaves the clock at its time."""
    loop = SimLoop()
    seen = []
    loop.call_later(500.0, lambda: seen.append(loop.now()))
    cancelled = loop.call_later(100.0, lambda: seen.append("no"))
    cancelled.cancel()
    assert loop.run_until_idle() == 1
    assert seen == [500.0]
    assert loop.now() == 500.0


def test_freelist_never_recycles_externally_held_handles():
    """A handle the caller kept stays its own event's: a stale cancel()
    after it fired is a no-op and cannot reach a later event."""
    loop = SimLoop()
    seen = []
    held = loop.call_later(0.1, lambda: seen.append("a"))
    loop.run_until(0.2)
    second = loop.call_later(0.1, lambda: seen.append("b"))
    assert second is not held
    held.cancel()  # stale cancel on the fired handle: must be a no-op
    loop.run_until(0.4)
    assert seen == ["a", "b"]


def test_call_soon_from_callback_queues_behind_same_instant_events():
    """A callback that re-schedules at the current instant lands behind
    already-queued same-instant events."""
    loop = SimLoop()
    seen: list[str] = []

    def chain(tag: str, depth: int) -> None:
        seen.append(f"{tag}{depth}@{loop.now()}")
        if depth < 3:
            loop.call_soon(chain, tag, depth + 1)

    loop.call_at(0.25, chain, "a", 0)
    loop.call_at(0.25, chain, "b", 0)
    loop.run_until(1.0)
    assert seen == ["a0@0.25", "b0@0.25", "a1@0.25", "b1@0.25",
                    "a2@0.25", "b2@0.25", "a3@0.25", "b3@0.25"]


def test_cancel_inside_callback():
    """Cancelling a not-yet-fired same-instant event from a callback is
    honoured (lazy cancellation skips it when popped)."""
    loop = SimLoop()
    seen: list[str] = []
    victim = {}

    def killer() -> None:
        seen.append("killer")
        victim["h"].cancel()

    loop.call_at(0.5, killer)
    victim["h"] = loop.call_at(0.5, lambda: seen.append("victim"))
    loop.call_at(0.5, lambda: seen.append("after"))
    loop.run_until(1.0)
    assert seen == ["killer", "after"]


def test_event_fires_iff_due_by_deadline():
    """Event times and run deadlines a few milliseconds apart, in every
    combination: an event fires in the first run exactly when its time
    is at most the deadline, and in the second run otherwise."""
    offsets = [1.280, 1.281, 1.285, 1.2899999, 1.29, 1.295]
    for event_at in offsets:
        for deadline in offsets:
            loop = SimLoop()
            seen: list[float] = []
            loop.call_later(event_at, lambda: seen.append(loop.now()))
            loop.run_until(deadline)
            mid = list(seen)
            loop.run_until(5.0)
            due = [event_at] if event_at <= deadline else []
            assert (mid, seen, pending_count(loop), loop.events_processed) \
                == (due, [event_at], 0, 1), (event_at, deadline)


@pytest.mark.parametrize("seed", range(8))
def test_same_instant_bursts_keep_scheduling_order(seed):
    """Many events at identical instants (the call_soon pattern) fire in
    exact scheduling order."""
    rng = random.Random(1000 + seed)
    instants = sorted(rng.uniform(0.0, 3.0) for _ in range(10))
    loop = SimLoop()
    seen: list[tuple] = []
    expected: list[tuple] = []
    burst_rng = random.Random(2000 + seed)
    for i, at in enumerate(instants):
        for j in range(burst_rng.randrange(1, 5)):
            loop.call_at(at, lambda i=i, j=j:
                         seen.append((i, j, loop.now())))
            expected.append((i, j, at))
    loop.run_until(5.0)
    assert seen == expected


# ----------------------------------------------------------------------
# Random schedule/cancel/run traces against a list-scan oracle
# ----------------------------------------------------------------------
# An event is scheduled either through the primitive (``schedule``,
# cancelled with ``loop.cancel(entry)``) or through the public API
# (``call_later``, cancelled with ``Handle.cancel()``). A *sweep* event
# cancels, when it fires, two in three events scheduled so far -- pending
# ones (mid-run cancels, compaction inside a callback) and fired ones
# (cancel-after-fire, a no-op) alike.


class Recorder:
    """Drives one SimLoop through a scripted trace, logging every fire."""

    def __init__(self, loop: SimLoop) -> None:
        self.loop = loop
        self.history: list[tuple] = []
        self.events: list = []          # entries and handles, in order
        self.by_token: dict[int, int] = {}
        self.last_fired: int | None = None
        self.mid_run_compactions = 0

    def schedule(self, delay: float, token: int, rearm: float | None,
                 primitive: bool, sweep: bool) -> None:
        self.by_token[token] = len(self.events)
        if primitive:
            event = self.loop.schedule(delay, self.fire, token, rearm, sweep)
        else:
            event = self.loop.call_later(delay, self.fire, token, rearm,
                                         sweep)
        self.events.append(event)

    def cancel(self, index: int) -> None:
        event = self.events[index]
        if isinstance(event, list):
            self.loop.cancel(event)
        else:
            event.cancel()

    def fire(self, token: int, rearm: float | None, sweep: bool) -> None:
        self.history.append(("fire", token, round(self.loop.now(), 9)))
        self.last_fired = self.by_token[token]
        if sweep:
            before = len(self.loop._heap)
            for index in range(len(self.events)):
                if index % 3 != token % 3:
                    self.cancel(index)
            if len(self.loop._heap) < before:
                self.mid_run_compactions += 1
        if rearm is not None:
            # Mid-run scheduling: the rearmed event must order exactly
            # as the oracle orders it too.
            self.schedule(rearm, token + 100_000, None, token % 2 == 0,
                          False)

    def apply(self, op: tuple) -> None:
        kind = op[0]
        loop = self.loop
        if kind == "schedule":
            self.schedule(*op[1:])
        elif kind == "cancel":
            if self.events:
                self.cancel(op[1] % len(self.events))
        elif kind == "cancel_fired":
            if self.last_fired is not None:
                self.cancel(self.last_fired)
        elif kind == "run":
            loop.run_for(op[1])
            self.history.append(("clock", round(loop.now(), 9),
                                 loop.events_processed))
        elif kind == "idle":
            executed = loop.run_until_idle(max_events=100_000)
            self.history.append(("idle", executed, round(loop.now(), 9),
                                 pending_count(loop)))


class Oracle:
    """The scheduler's contract as a list scan: of the live entries, the
    one with the least ``(when, seq)`` fires next. Replays the same ops
    as :class:`Recorder` and logs the same history."""

    def __init__(self) -> None:
        self.now = 0.0
        self.fired = 0
        self.seq = 0
        self.live: list[list] = []      # [when, seq, token, rearm, sweep]
        self.events: list[list] = []    # every entry, in scheduling order
        self.by_token: dict[int, int] = {}
        self.last_fired: int | None = None
        self.history: list[tuple] = []

    def schedule(self, delay: float, token: int, rearm: float | None,
                 primitive: bool, sweep: bool) -> None:
        entry = [self.now + delay, self.seq, token, rearm, sweep]
        self.seq += 1
        self.by_token[token] = len(self.events)
        self.live.append(entry)
        self.events.append(entry)

    def cancel(self, index: int) -> None:
        victim = self.events[index]
        self.live = [e for e in self.live if e is not victim]

    def run(self, deadline: float) -> int:
        fired = 0
        while self.live:
            entry = min(self.live)  # seq is unique: never compares past it
            if entry[0] > deadline:
                break
            self.live.remove(entry)
            self.now = entry[0]
            self.fired += 1
            fired += 1
            when, _seq, token, rearm, sweep = entry
            self.history.append(("fire", token, round(self.now, 9)))
            self.last_fired = self.by_token[token]
            if sweep:
                for index in range(len(self.events)):
                    if index % 3 != token % 3:
                        self.cancel(index)
            if rearm is not None:
                self.schedule(rearm, token + 100_000, None,
                              token % 2 == 0, False)
        return fired

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "schedule":
            self.schedule(*op[1:])
        elif kind == "cancel":
            if self.events:
                self.cancel(op[1] % len(self.events))
        elif kind == "cancel_fired":
            if self.last_fired is not None:
                self.cancel(self.last_fired)
        elif kind == "run":
            deadline = self.now + op[1]
            self.run(deadline)
            self.now = deadline
            self.history.append(("clock", round(self.now, 9), self.fired))
        elif kind == "idle":
            executed = self.run(float("inf"))
            self.history.append(("idle", executed, round(self.now, 9),
                                 len(self.live)))


def random_trace(rng: random.Random, length: int) -> list[tuple]:
    """A random op sequence biased toward the consensus-load shape:
    lots of short timers, frequent cancels, occasional far-future
    events, and the odd full drain. It opens with a burst of far-future
    events, so a sweep that fires early finds a heap large enough to
    compact from inside the run."""
    ops: list[tuple] = []
    token = 0
    for _ in range(80):
        ops.append(("schedule", rng.uniform(5.0, 60.0), token, None,
                    rng.random() < 0.5, False))
        token += 1
    for _ in range(length):
        roll = rng.random()
        if roll < 0.55:
            if rng.random() < 0.8:
                delay = rng.uniform(0.0, 0.7)       # heartbeat/election band
            else:
                delay = rng.uniform(2.0, 40.0)      # far future
            if rng.random() < 0.1:
                delay = round(delay, 2)             # exact 10 ms edges
            rearm = rng.uniform(0.0, 0.5) if rng.random() < 0.2 else None
            ops.append(("schedule", delay, token, rearm,
                        rng.random() < 0.5, rng.random() < 0.05))
            token += 1
        elif roll < 0.75:
            ops.append(("cancel", rng.randrange(0, 10_000)))
        elif roll < 0.80:
            ops.append(("cancel_fired",))
        elif roll < 0.97:
            ops.append(("run", rng.uniform(0.0, 2.5)))
        else:
            ops.append(("idle",))
    ops.append(("idle",))
    return ops


def replay(seed: int) -> tuple[Recorder, Oracle]:
    trace = random_trace(random.Random(seed), length=120)
    recorder = Recorder(SimLoop())
    oracle = Oracle()
    for op in trace:
        recorder.apply(op)
        oracle.apply(op)
    return recorder, oracle


@pytest.mark.parametrize("seed", range(25))
def test_random_traces_fire_identically(seed):
    recorder, oracle = replay(seed)
    assert recorder.history == oracle.history
    assert pending_count(recorder.loop) == len(oracle.live)
    assert recorder.loop.events_processed == oracle.fired


def test_random_traces_mix_every_case():
    """The traces above reach each case they are meant to hold to the
    oracle: both kinds of event and of cancel, cancels of fired events,
    and compaction from inside a running callback."""
    primitive = handles = fired_cancels = compactions = 0
    for seed in range(25):
        recorder, _ = replay(seed)
        primitive += sum(isinstance(e, list) for e in recorder.events)
        handles += sum(isinstance(e, Handle) for e in recorder.events)
        fired_cancels += sum(op == ("cancel_fired",) for op in
                             random_trace(random.Random(seed), length=120))
        compactions += recorder.mid_run_compactions
    assert primitive and handles and fired_cancels and compactions


def test_handle_is_a_view_of_its_entry():
    loop = SimLoop()
    handle = loop.call_later(0.25, print, "x")
    (pending,) = loop.pending_handles()
    assert pending.seq == handle.seq and pending is not handle
    assert (handle.when, handle.seq, handle.callback, handle.args) \
        == (0.25, 0, print, ("x",))
    handle.cancel()
    assert handle.callback is None and handle.args == ()
    assert loop.pending_handles() == []
