"""The discrete-event simulation loop: a virtual clock plus a scheduler.

Time is a float in **seconds**. Events scheduled for the same instant run
in scheduling order (a monotonically increasing sequence number breaks
ties), which keeps runs deterministic regardless of scheduler internals.

The scheduler is a bucketed timer wheel sized for the heartbeat- and
election-timeout-dominated load of the consensus engines: events within
the wheel horizon live in per-bucket mini heaps of ``(when, seq,
handle)`` tuples (comparisons stay in C, no per-compare tuple
allocation), far-future events wait in an overflow heap and migrate in
as the wheel turns. Cancellation is O(1) cancel-and-forget, and fired or
cancelled handles are recycled through a small free-list when nothing
else references them. ``tests/heap_loop.py`` keeps a single-heap
reference scheduler; the equivalence tests replay random
schedule/cancel traces through both and compare firing order and clock
reads.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import sys
from typing import Any, Callable

from repro.errors import SimulationError

#: Convenience unit: ``loop.call_later(100 * MS, fn)`` reads like the paper.
MS = 1e-3

#: Timer-wheel geometry. Buckets are ``1 / _WHEEL_INV`` seconds wide
#: (10 ms: a few heartbeats per bucket) and the wheel spans
#: ``_WHEEL_SLOTS`` buckets (1.28 s: heartbeats, election timeouts, WAN
#: latencies, and the default proposal timeout all land inside the
#: horizon; only long-range experiment timers overflow).
_WHEEL_INV = 100.0
_WHEEL_SLOTS = 128
_WHEEL_HORIZON = _WHEEL_SLOTS / _WHEEL_INV

#: Recycled handles kept for reuse, at most.
_FREELIST_MAX = 512


class Handle:
    """Cancellation handle returned by :meth:`SimLoop.call_later`.

    Cancellation is lazy: the entry stays in its bucket (or heap) and is
    skipped when popped. This makes ``cancel()`` O(1). The owning loop
    keeps a count of cancelled entries still stored so the structure can
    be compacted when cancellations dominate it.
    """

    __slots__ = ("when", "_callback", "_args", "_cancelled", "seq",
                 "_loop", "_in_heap")

    def __init__(self, when: float, seq: int,
                 callback: Callable[..., None], args: tuple,
                 loop: "SimLoop | None" = None) -> None:
        self.when = when
        self.seq = seq
        self._callback = callback
        self._args = args
        self._cancelled = False
        self._loop = loop
        self._in_heap = False

    def cancel(self) -> None:
        """Prevent the callback from running. Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        # Drop references so cancelled closures can be collected early.
        self._callback = None
        self._args = ()
        if self._in_heap and self._loop is not None:
            self._loop._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self._cancelled else "pending"
        return f"<Handle when={self.when:.6f} seq={self.seq} {state}>"


class SimLoop:
    """Virtual-time event loop.

    The loop only advances time when asked to run; scheduling callbacks is
    side-effect free until then. A typical experiment::

        loop = SimLoop()
        loop.call_later(0.5, do_something)
        loop.run_until(60.0)
    """

    #: Compaction never bothers with structures smaller than this.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False
        self._cancelled_in_heap = 0
        self._free: list[Handle] = []
        self._wheel: list[list] = [[] for _ in range(_WHEEL_SLOTS)]
        self._overflow: list = []
        self._cursor = 0          # absolute bucket id of the clock
        self._active = 0          # scheduled, non-cancelled entries
        self._in_wheel = 0        # entries in wheel slots (incl. cancelled)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for tests and stats)."""
        return self._events_processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    # Scheduling runs once per simulated event (often twice), so
    # call_later and call_soon repeat call_at's body instead of calling
    # it: no extra frame, no redundant past-check.
    def call_at(self, when: float, callback: Callable[..., None],
                *args: Any) -> Handle:
        """Schedule ``callback(*args)`` to run at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when!r}, now is {self._now!r}")
        seq = next(self._seq)
        free = self._free
        if free:
            handle = free.pop()
            handle.when = when
            handle.seq = seq
            handle._callback = callback
            handle._args = args
            handle._cancelled = False
        else:
            handle = Handle(when, seq, callback, args, loop=self)
        handle._in_heap = True
        self._active += 1
        if when - self._now >= _WHEEL_HORIZON:
            heapq.heappush(self._overflow, (when, seq, handle))
        else:
            self._in_wheel += 1
            heapq.heappush(
                self._wheel[int(when * _WHEEL_INV) % _WHEEL_SLOTS],
                (when, seq, handle))
        return handle

    def call_later(self, delay: float, callback: Callable[..., None],
                   *args: Any) -> Handle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        when = self._now + delay
        seq = next(self._seq)
        free = self._free
        if free:
            handle = free.pop()
            handle.when = when
            handle.seq = seq
            handle._callback = callback
            handle._args = args
            handle._cancelled = False
        else:
            handle = Handle(when, seq, callback, args, loop=self)
        handle._in_heap = True
        self._active += 1
        if when - self._now >= _WHEEL_HORIZON:
            heapq.heappush(self._overflow, (when, seq, handle))
        else:
            self._in_wheel += 1
            heapq.heappush(
                self._wheel[int(when * _WHEEL_INV) % _WHEEL_SLOTS],
                (when, seq, handle))
        return handle

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Handle:
        """Schedule ``callback(*args)`` at the current instant (always
        inside the horizon, so placement needs no overflow test)."""
        when = self._now
        seq = next(self._seq)
        free = self._free
        if free:
            handle = free.pop()
            handle.when = when
            handle.seq = seq
            handle._callback = callback
            handle._args = args
            handle._cancelled = False
        else:
            handle = Handle(when, seq, callback, args, loop=self)
        handle._in_heap = True
        self._active += 1
        self._in_wheel += 1
        heapq.heappush(
            self._wheel[int(when * _WHEEL_INV) % _WHEEL_SLOTS],
            (when, seq, handle))
        return handle

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run_until(self, deadline: float) -> None:
        """Run events until the clock reaches ``deadline``.

        Time is advanced to ``deadline`` even if the schedule drains
        earlier, so subsequent ``now()`` calls reflect the elapsed
        interval.
        """
        if deadline < self._now:
            raise SimulationError(
                f"deadline {deadline!r} is before now {self._now!r}")
        if self._running:
            raise SimulationError("loop is already running (re-entrant run)")
        self._running = True
        # The event loop allocates hundreds of short-lived objects per
        # event (messages, tuples, closures), all reclaimed promptly by
        # reference counting; the cycle collector's young-generation
        # scans during the run are pure overhead. Pause it for the
        # duration -- cycles created inside are picked up once the
        # caller allocates again with the collector back on.
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            self._run_wheel(deadline)
            self._now = deadline
        finally:
            self._running = False
            if paused:
                gc.enable()

    def _run_wheel(self, deadline: float,
                   max_events: int | None = None) -> int:
        """Timer-wheel run; returns the number of events fired.

        Invariants: every stored entry has ``when >= now``; every wheel
        entry's bucket id lies in ``[cursor, cursor + slots)`` (overflow
        holds everything farther out), so within one bucket the mini
        heap yields exact ``(when, seq)`` order and across buckets the
        cursor sweep yields time order.
        """
        target_bid = int(deadline * _WHEEL_INV)
        wheel = self._wheel
        overflow = self._overflow
        free = self._free
        cursor = self._cursor
        fired = 0
        while self._active:
            # Pull overflow entries whose bucket enters the horizon.
            # (Float multiply keeps this exact w.r.t. placement and
            # safe for infinite ``when``.)
            horizon_bid = cursor + _WHEEL_SLOTS
            while overflow and overflow[0][0] * _WHEEL_INV < horizon_bid:
                item = heapq.heappop(overflow)
                self._in_wheel += 1
                heapq.heappush(
                    wheel[int(item[0] * _WHEEL_INV) % _WHEEL_SLOTS], item)
            slot = wheel[cursor % _WHEEL_SLOTS]
            while slot:
                when = slot[0][0]
                bid = int(when * _WHEEL_INV)
                if bid > cursor:
                    break  # resident of a later rotation; not due yet
                if bid == cursor and when > deadline:
                    # Due bucket, but past the deadline (the deadline
                    # falls inside this bucket): leave it queued.
                    self._cursor = cursor
                    return fired
                # bid < cursor only happens for cancelled leftovers the
                # deep-overflow clock jump skipped past; pop and discard
                # them like any other cancelled entry.
                when, _seq, handle = heapq.heappop(slot)
                self._in_wheel -= 1
                handle._in_heap = False
                if handle._cancelled:
                    self._cancelled_in_heap -= 1
                    if (len(free) < _FREELIST_MAX
                            and sys.getrefcount(handle) == 2):
                        free.append(handle)
                    continue
                self._active -= 1
                self._now = when
                self._events_processed += 1
                fired += 1
                if max_events is not None and fired > max_events:
                    raise SimulationError(
                        f"run_until_idle exceeded {max_events} events")
                handle._callback(*handle._args)
                # Recycle if this frame holds the only reference (2 ==
                # the local + getrefcount's own argument); a caller that
                # kept the handle -- and so could still cancel() it --
                # shows up in the count and blocks reuse.
                if (len(free) < _FREELIST_MAX
                        and sys.getrefcount(handle) == 2):
                    handle._callback = None
                    handle._args = ()
                    free.append(handle)
                # A callback may have compacted the wheel in place or
                # scheduled into this bucket; the slot alias stays valid
                # (compaction uses slice assignment).
            if cursor >= target_bid:
                break
            if not self._in_wheel:
                # The wheel itself is empty: jump the cursor to where
                # the next overflow entry (or the deadline) lives
                # instead of sweeping empty buckets. The due check must
                # compare times, not buckets -- an entry can share the
                # deadline's bucket yet still be due (when <= deadline).
                if not overflow:
                    break
                ow_when = overflow[0][0]
                if ow_when > deadline:
                    break
                cursor = max(cursor + 1,
                             int(ow_when * _WHEEL_INV) - _WHEEL_SLOTS + 1)
                continue
            cursor += 1
        self._cursor = max(self._cursor, target_bid)
        return fired

    def run_for(self, duration: float) -> None:
        """Run events for ``duration`` seconds of virtual time."""
        self.run_until(self._now + duration)

    def run_until_idle(self, max_events: int | None = None) -> int:
        """Run until no events remain; returns the number executed.

        ``max_events`` bounds runaway simulations (e.g. a timer that
        re-arms forever); exceeding it raises :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError("loop is already running (re-entrant run)")
        self._running = True
        executed = 0
        paused = gc.isenabled()
        if paused:
            gc.disable()  # same collector pause as run_until
        try:
            while self._active:
                budget = (None if max_events is None
                          else max_events - executed)
                before = self._events_processed
                executed += self._run_wheel(self._now + _WHEEL_HORIZON,
                                            max_events=budget)
                if self._events_processed == before and self._active:
                    # Everything left lies beyond the scanned window
                    # (deep overflow): jump the clock to the earliest
                    # pending event and go again.
                    self._now = self.pending_handles()[0].when
                    self._cursor = int(self._now * _WHEEL_INV)
            # Unlike run_until, the clock stays at the last fired event
            # here -- pull the cursor back next to it so later schedules
            # land ahead of it, never behind.
            self._cursor = int(self._now * _WHEEL_INV)
        finally:
            self._running = False
            if paused:
                gc.enable()
        return executed

    # ------------------------------------------------------------------
    # Model-checking hooks: enumerate and fire events out of order
    # ------------------------------------------------------------------
    def pending_handles(self) -> list[Handle]:
        """Every scheduled, non-cancelled handle in ``(when, seq)`` order.

        O(pending log pending). This is the model checker's *branch set*:
        the explorer enumerates it, forks the world, and fires one handle
        per child via :meth:`fire_handle`.
        """
        handles = [item[2] for slot in self._wheel for item in slot
                   if not item[2]._cancelled]
        handles.extend(item[2] for item in self._overflow
                       if not item[2]._cancelled)
        handles.sort(key=lambda h: (h.when, h.seq))
        return handles

    def fire_handle(self, handle: Handle) -> None:
        """Run one pending handle now, possibly out of time order.

        The clock advances to ``max(now, handle.when)`` (never backward:
        an exploration may fire a later-scheduled event first, and a
        monotonic clock keeps subsequent ``call_later`` legal). The stored
        wheel/heap entry is retired through the normal lazy-cancellation
        path, so bookkeeping stays exact.

        This deliberately breaks the scheduler's time-order contract --
        callers (the model-checking explorer, trace replay) must drive
        *every* subsequent event through this hook rather than mixing in
        ``run_until``.
        """
        if self._running:
            raise SimulationError("cannot fire_handle while the loop runs")
        if handle._cancelled or not handle._in_heap:
            raise SimulationError(f"handle is not pending: {handle!r}")
        callback, args = handle._callback, handle._args
        handle.cancel()  # retires the stored entry; drops its refs
        if handle.when > self._now:
            self._now = handle.when
            self._cursor = max(self._cursor, int(self._now * _WHEEL_INV))
        self._events_processed += 1
        callback(*args)

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """A handle still stored was cancelled; maybe compact.

        Compaction rewrites the structure *in place* (slice assignment)
        so any local alias held by a running ``run_until`` stays valid.
        """
        self._cancelled_in_heap += 1
        self._active -= 1
        stored = self._in_wheel + len(self._overflow)
        if (stored >= self._COMPACT_MIN
                and self._cancelled_in_heap * 2 > stored):
            in_wheel = 0
            for slot in self._wheel:
                if slot:
                    kept = [item for item in slot if not item[2]._cancelled]
                    slot[:] = kept
                    heapq.heapify(slot)
                    in_wheel += len(kept)
            overflow = self._overflow
            overflow[:] = [item for item in overflow
                           if not item[2]._cancelled]
            heapq.heapify(overflow)
            self._in_wheel = in_wheel
            self._cancelled_in_heap = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SimLoop now={self._now:.6f} "
                f"pending={self._active}>")
