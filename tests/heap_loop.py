"""The reference scheduler: one binary heap, nothing else.

``SimLoop`` schedules through a bucketed timer wheel with an overflow
heap, a handle free-list and a collector pause. ``HeapLoop`` honours the
same contract -- events fire in ``(when, seq)`` order, the clock reads
the same at every firing, cancellation is lazy and compacts when it
dominates -- with a single ``heapq`` of ``(when, seq, handle)`` entries,
so the timer-wheel tests can replay one trace through both and compare.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.loop import Handle, SimLoop


class HeapLoop(SimLoop):
    def __init__(self) -> None:
        super().__init__()
        self._heap: list = []

    def call_at(self, when: float, callback: Callable[..., None],
                *args: Any) -> Handle:
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when!r}, now is {self._now!r}")
        handle = Handle(when, next(self._seq), callback, args, loop=self)
        handle._in_heap = True
        heapq.heappush(self._heap, (when, handle.seq, handle))
        return handle

    def call_later(self, delay: float, callback: Callable[..., None],
                   *args: Any) -> Handle:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        return self.call_at(self._now + delay, callback, *args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Handle:
        return self.call_at(self._now, callback, *args)

    def run_until(self, deadline: float) -> None:
        if deadline < self._now:
            raise SimulationError(
                f"deadline {deadline!r} is before now {self._now!r}")
        self._run(deadline)
        self._now = deadline

    def run_until_idle(self, max_events: int | None = None) -> int:
        return self._run(float("inf"), max_events)

    def _run(self, deadline: float, max_events: int | None = None) -> int:
        if self._running:
            raise SimulationError("loop is already running (re-entrant run)")
        self._running = True
        heap = self._heap
        fired = 0
        try:
            while heap and heap[0][0] <= deadline:
                when, _seq, handle = heapq.heappop(heap)
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
        return fired

    def _note_cancelled(self) -> None:
        self._cancelled_in_heap += 1
        heap = self._heap
        if (len(heap) >= self._COMPACT_MIN
                and self._cancelled_in_heap * 2 > len(heap)):
            # In place, so a running _run's alias stays valid.
            heap[:] = [item for item in heap if not item[2]._cancelled]
            heapq.heapify(heap)
            self._cancelled_in_heap = 0


def pending_count(loop: SimLoop) -> int:
    """Scheduled, non-cancelled callbacks, as the loop itself counts them
    (the wheel's ``_active`` is what ``run_until_idle`` runs down)."""
    if isinstance(loop, HeapLoop):
        return len(loop._heap) - loop._cancelled_in_heap
    return loop._active
