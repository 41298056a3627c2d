"""The discrete-event simulation loop: a virtual clock plus a scheduler.

Time is a float in **seconds**. Events scheduled for the same instant run
in scheduling order (a monotonically increasing sequence number breaks
ties), which keeps runs deterministic regardless of scheduler internals.

The scheduler is one binary heap of ``(when, seq, handle)`` tuples:
``seq`` is unique, so comparisons stay in C and never reach the handle.
Cancellation is O(1) cancel-and-forget -- the entry is skipped when
popped -- and the heap is compacted in place once cancelled entries are
more than half of it.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from typing import Any, Callable

from repro.errors import SimulationError

#: Convenience unit: ``loop.call_later(100 * MS, fn)`` reads like the paper.
MS = 1e-3


class Handle:
    """Cancellation handle returned by :meth:`SimLoop.call_later`.

    Cancellation is lazy and O(1): the entry stays in the heap and is
    skipped when popped; the loop counts such entries to compact the
    heap when they dominate it.
    """

    __slots__ = ("when", "_callback", "_args", "_cancelled", "seq",
                 "_loop", "_in_heap")

    def __init__(self, when: float, seq: int,
                 callback: Callable[..., None], args: tuple,
                 loop: "SimLoop") -> None:
        self.when = when
        self.seq = seq
        self._callback = callback
        self._args = args
        self._cancelled = False
        self._loop = loop
        self._in_heap = True

    def cancel(self) -> None:
        """Prevent the callback from running. Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        # Drop references so cancelled work can be collected early.
        self._callback = None
        self._args = ()
        if self._in_heap:
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

    #: Compaction never bothers with heaps smaller than this.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False
        self._heap: list = []
        self._cancelled_in_heap = 0

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
        handle = Handle(when, seq, callback, args, self)
        heapq.heappush(self._heap, (when, seq, handle))
        return handle

    def call_later(self, delay: float, callback: Callable[..., None],
                   *args: Any) -> Handle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        when = self._now + delay
        seq = next(self._seq)
        handle = Handle(when, seq, callback, args, self)
        heapq.heappush(self._heap, (when, seq, handle))
        return handle

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Handle:
        """Schedule ``callback(*args)`` at the current instant, behind
        everything already queued for it."""
        when = self._now
        seq = next(self._seq)
        handle = Handle(when, seq, callback, args, self)
        heapq.heappush(self._heap, (when, seq, handle))
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
        self._run(deadline)
        self._now = deadline

    def run_for(self, duration: float) -> None:
        """Run events for ``duration`` seconds of virtual time."""
        self.run_until(self._now + duration)

    def run_until_idle(self, max_events: int | None = None) -> int:
        """Run until no events remain; returns the number executed.

        Unlike :meth:`run_until`, the clock stays at the last fired
        event. ``max_events`` bounds runaway simulations (e.g. a timer
        that re-arms forever); exceeding it raises
        :class:`SimulationError`.
        """
        return self._run(float("inf"), max_events)

    def _run(self, deadline: float, max_events: int | None = None) -> int:
        """Fire every event due by ``deadline``; returns how many fired."""
        if self._running:
            raise SimulationError("loop is already running (re-entrant run)")
        self._running = True
        # Events allocate many short-lived objects (messages, tuples,
        # handles) that reference counting reclaims promptly, so the
        # cycle collector's scans during a run are pure overhead. Pause
        # it; cycles made inside are found once it is back on.
        paused = gc.isenabled()
        if paused:
            gc.disable()
        heap = self._heap
        heappop = heapq.heappop
        fired = 0
        try:
            while heap and heap[0][0] <= deadline:
                when, _seq, handle = heappop(heap)
                handle._in_heap = False
                if handle._cancelled:
                    self._cancelled_in_heap -= 1
                    continue
                self._now = when
                self._events_processed += 1
                fired += 1
                if max_events is not None and fired > max_events:
                    raise SimulationError(
                        f"run_until_idle exceeded {max_events} events")
                handle._callback(*handle._args)
        finally:
            self._running = False
            if paused:
                gc.enable()
        return fired

    # ------------------------------------------------------------------
    # Model-checking hooks: enumerate and fire events out of order
    # ------------------------------------------------------------------
    def pending_handles(self) -> list[Handle]:
        """Every scheduled, non-cancelled handle in ``(when, seq)`` order.

        O(pending log pending). This is the model checker's *branch set*:
        the explorer enumerates it, forks the world, and fires one handle
        per child via :meth:`fire_handle`.
        """
        return [item[2] for item in sorted(self._heap)
                if not item[2]._cancelled]

    def fire_handle(self, handle: Handle) -> None:
        """Run one pending handle now, possibly out of time order.

        The clock advances to ``max(now, handle.when)`` (never backward:
        an exploration may fire a later-scheduled event first, and a
        monotonic clock keeps subsequent ``call_later`` legal). The stored
        heap entry is retired through the normal lazy-cancellation path,
        so bookkeeping stays exact.

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
        self._events_processed += 1
        callback(*args)

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """A handle still stored was cancelled; maybe compact.

        Compaction rewrites the heap *in place* (slice assignment) so
        the alias a running :meth:`_run` holds stays valid.
        """
        self._cancelled_in_heap += 1
        heap = self._heap
        if (len(heap) >= self._COMPACT_MIN
                and self._cancelled_in_heap * 2 > len(heap)):
            heap[:] = [item for item in heap if not item[2]._cancelled]
            heapq.heapify(heap)
            self._cancelled_in_heap = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SimLoop now={self._now:.6f} "
                f"pending={len(self._heap) - self._cancelled_in_heap}>")
