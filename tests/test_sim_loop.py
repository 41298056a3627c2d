"""Tests for the simulation loop (clock + scheduler)."""

import pytest

from heap_loop import HeapLoop, pending_count
from repro.errors import SimulationError
from repro.sim.loop import MS, SimLoop


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
    """pending_count is O(1): it tracks pushes, pops, and cancels."""
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
    loop = HeapLoop()
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


def test_wheel_compacts_when_cancellations_dominate():
    loop = SimLoop()
    doomed = [loop.call_later(float(i + 1) / 10, lambda: None)
              for i in range(100)]
    keep = [loop.call_later(200.0 + i, lambda: None) for i in range(10)]
    for handle in doomed:
        handle.cancel()
    # Cancellations dominate: the wheel slots and overflow must have
    # been compacted (dead entries dropped), not left at full size.
    stored = sum(len(slot) for slot in loop._wheel) + len(loop._overflow)
    assert stored < len(doomed) + len(keep) - 40
    assert pending_count(loop) == 10
    loop.run_until(300.0)
    assert loop.events_processed == 10


@pytest.mark.parametrize("make_loop", [SimLoop, HeapLoop],
                         ids=["wheel", "heap"])
def test_compaction_during_run_keeps_heap_alias_valid(make_loop):
    """Compaction triggered from inside a callback must not strand the
    running loop on a stale heap/slot list."""
    loop = make_loop()
    doomed = [loop.call_later(50.0 + i, lambda: None) for i in range(80)]
    seen = []

    def cancel_all():
        for handle in doomed:
            handle.cancel()

    loop.call_later(1.0, cancel_all)
    loop.call_later(2.0, lambda: seen.append(loop.now()))
    loop.run_until(100.0)
    assert seen == [2.0]
    assert pending_count(loop) == 0


def test_far_future_events_migrate_from_overflow():
    """Events beyond the wheel horizon wait in the overflow heap and
    still fire in exact time order as the wheel turns."""
    loop = SimLoop()
    seen = []
    loop.call_later(50.0, lambda: seen.append("far"))
    loop.call_later(0.05, lambda: seen.append("near"))
    loop.call_later(49.999, lambda: seen.append("mid"))
    assert len(loop._overflow) == 2
    loop.run_until(60.0)
    assert seen == ["near", "mid", "far"]


def test_overflow_event_sharing_deadline_bucket_fires():
    """Regression: with the wheel empty, a due overflow event whose time
    shares the deadline's bucket must fire -- the jump's due check has
    to compare times, not bucket ids (1.285 and 1.289 share bucket 128
    at 10ms width; 1.285 * 100 > int(1.289 * 100) would skip it)."""
    loop = SimLoop()
    seen = []
    loop.call_later(1.285, lambda: seen.append(loop.now()))
    loop.run_until(1.289)
    assert seen == [1.285]
    assert pending_count(loop) == 0


def test_deep_overflow_jump_in_run_until_idle():
    """run_until_idle over a schedule far beyond the horizon must jump
    to it rather than sweep (and still report the right clock)."""
    loop = SimLoop()
    seen = []
    loop.call_later(500.0, lambda: seen.append(loop.now()))
    cancelled = loop.call_later(100.0, lambda: seen.append("no"))
    cancelled.cancel()
    assert loop.run_until_idle() == 1
    assert seen == [500.0]
    assert loop.now() == 500.0


def test_freelist_never_recycles_externally_held_handles():
    """A handle the caller kept must not be reused for a later event
    (its cancel() would otherwise kill the new occupant)."""
    loop = SimLoop()
    seen = []
    held = loop.call_later(0.1, lambda: seen.append("a"))
    loop.run_until(0.2)
    second = loop.call_later(0.1, lambda: seen.append("b"))
    assert second is not held
    held.cancel()  # stale cancel on the fired handle: must be a no-op
    loop.run_until(0.4)
    assert seen == ["a", "b"]


def test_freelist_recycles_unreferenced_handles():
    loop = SimLoop()
    for _ in range(5):
        loop.call_later(0.01, lambda: None)
    loop.run_until(1.0)
    assert len(loop._free) > 0
    before = len(loop._free)
    loop.call_later(0.5, lambda: None)
    assert len(loop._free) == before - 1
    loop.run_until(2.0)
    assert loop.events_processed == 6
