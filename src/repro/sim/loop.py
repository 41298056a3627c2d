"""The discrete-event simulation loop: a virtual clock plus a scheduler.

Time is a float in **seconds**. Events scheduled for the same instant run
in scheduling order (a monotonically increasing sequence number breaks
ties), which keeps runs deterministic regardless of scheduler internals.

The scheduler is one binary heap of pending events, each a plain list
``[when, seq, callback, args]`` (an *entry*). ``seq`` is unique, so heap
comparisons stay in C and never reach the callback. The callback slot
is set to ``None`` when the entry fires or is cancelled: that one slot
is the entry's whole state. Cancellation is O(1) cancel-and-forget --
the entry is skipped when popped -- and the heap is compacted in place
once cancelled entries are more than half of it.

Two ways in:

- :meth:`SimLoop.schedule` returns the bare entry and
  :meth:`SimLoop.cancel` takes it back. Every hot scheduler inside the
  package (network deliveries, timers, client retries, engine
  continuations) uses this pair: one list per event, nothing else.
- :meth:`SimLoop.call_later`, :meth:`~SimLoop.call_at` and
  :meth:`~SimLoop.call_soon` are the public API. They return a
  :class:`Handle`, a two-slot view of the entry with ``cancel()``,
  ``when``, ``seq``, ``callback`` and ``args``; the model checker reads
  pending events through the same view (:meth:`SimLoop.pending_handles`).
"""

from __future__ import annotations

import gc
import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError

#: Convenience unit: ``loop.call_later(100 * MS, fn)`` reads like the paper.
MS = 1e-3


class Handle:
    """A view of one scheduled entry, returned by the public scheduling
    calls (:meth:`SimLoop.call_later` and friends) and by
    :meth:`SimLoop.pending_handles`: a new view per call, so compare
    views by ``seq``. ``callback`` reads ``None`` once the event fired
    or was cancelled.
    """

    __slots__ = ("_entry", "_loop")

    def __init__(self, entry: list, loop: "SimLoop") -> None:
        self._entry = entry
        self._loop = loop

    @property
    def when(self) -> float:
        return self._entry[0]

    @property
    def seq(self) -> int:
        return self._entry[1]

    @property
    def callback(self) -> Callable[..., None] | None:
        return self._entry[2]

    @property
    def args(self) -> tuple:
        return self._entry[3]

    def cancel(self) -> None:
        """Prevent the callback from running. Idempotent."""
        self._loop.cancel(self._entry)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self._entry[2] is None else "pending"
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
        self._heap: list[list] = []
        #: Cancelled entries still stored in the heap.
        self._dead = 0

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
    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> list:
        """Schedule ``callback(*args)`` ``delay`` seconds from now and
        return its bare entry (for :meth:`cancel`). ``delay`` 0 queues
        it behind everything already due at the current instant."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        entry = [self._now + delay, next(self._seq), callback, args]
        heappush(self._heap, entry)
        return entry

    def cancel(self, entry: list) -> None:
        """Cancel a scheduled entry. A no-op once it fired or was
        cancelled.

        Compaction rewrites the heap *in place* (slice assignment) so
        the alias a running :meth:`_run` holds stays valid.
        """
        if entry[2] is None:
            return
        # Drop references so cancelled work can be collected early.
        entry[2] = None
        entry[3] = ()
        self._dead += 1
        heap = self._heap
        if len(heap) >= self._COMPACT_MIN and self._dead * 2 > len(heap):
            heap[:] = [item for item in heap if item[2] is not None]
            heapify(heap)
            self._dead = 0

    # The public calls repeat schedule()'s body instead of calling it:
    # no extra frame, no repacked arguments.
    def call_at(self, when: float, callback: Callable[..., None],
                *args: Any) -> Handle:
        """Schedule ``callback(*args)`` to run at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when!r}, now is {self._now!r}")
        entry = [when, next(self._seq), callback, args]
        heappush(self._heap, entry)
        return Handle(entry, self)

    def call_later(self, delay: float, callback: Callable[..., None],
                   *args: Any) -> Handle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        entry = [self._now + delay, next(self._seq), callback, args]
        heappush(self._heap, entry)
        return Handle(entry, self)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Handle:
        """Schedule ``callback(*args)`` at the current instant, behind
        everything already queued for it."""
        entry = [self._now, next(self._seq), callback, args]
        heappush(self._heap, entry)
        return Handle(entry, self)

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
        # Events allocate many short-lived objects (messages, entries)
        # that reference counting reclaims promptly, so the cycle
        # collector's scans during a run are pure overhead. Pause it;
        # cycles made inside are found once it is back on.
        paused = gc.isenabled()
        if paused:
            gc.disable()
        heap = self._heap
        fired = 0
        try:
            while heap and heap[0][0] <= deadline:
                entry = heappop(heap)
                callback = entry[2]
                if callback is None:
                    self._dead -= 1
                    continue
                entry[2] = None  # fired: a later cancel() is a no-op
                self._now = entry[0]
                self._events_processed += 1
                fired += 1
                if max_events is not None and fired > max_events:
                    raise SimulationError(
                        f"run_until_idle exceeded {max_events} events")
                callback(*entry[3])
        finally:
            self._running = False
            if paused:
                gc.enable()
        return fired

    # ------------------------------------------------------------------
    # Model-checking hooks: enumerate and fire events out of order
    # ------------------------------------------------------------------
    def pending_handles(self) -> list[Handle]:
        """A view of every pending entry, in ``(when, seq)`` order.

        O(pending log pending). This is the model checker's *branch set*:
        the explorer enumerates it, forks the world, and fires one handle
        per child via :meth:`fire_handle`.
        """
        return [Handle(entry, self) for entry in sorted(self._heap)
                if entry[2] is not None]

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
        entry = handle._entry
        callback, args = entry[2], entry[3]
        if callback is None:
            raise SimulationError(f"handle is not pending: {handle!r}")
        self.cancel(entry)  # retires the stored entry; drops its refs
        if entry[0] > self._now:
            self._now = entry[0]
        self._events_processed += 1
        callback(*args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SimLoop now={self._now:.6f} "
                f"pending={len(self._heap) - self._dead}>")
