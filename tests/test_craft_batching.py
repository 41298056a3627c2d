"""Tests for the C-Raft batcher (pure logic)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.entry import EntryKind, InsertedBy, LogEntry
from repro.craft.batching import (BATCH_CEILING, BATCH_FLOOR, EWMA_ALPHA,
                                  OUTSTANDING_CEILING, TARGET_COMMIT_LATENCY,
                                  Batcher, BatchPolicy, ProposalCoalescer)
from repro.errors import ConfigurationError


def data_entry(entry_id):
    return LogEntry(entry_id=entry_id, kind=EntryKind.DATA, payload=None,
                    origin="n0", term=1, inserted_by=InsertedBy.LEADER)


def state_entry(entry_id):
    return LogEntry(entry_id=entry_id, kind=EntryKind.GLOBAL_STATE,
                    payload=None, origin="n0", term=1,
                    inserted_by=InsertedBy.LEADER)


def feed(batcher, start, count, now=0.0):
    for i in range(start, start + count):
        batcher.observe_and_check(i, data_entry(f"e{i}"), now)


class TestReadiness:
    def test_not_ready_below_batch_size(self):
        batcher = Batcher("c", BatchPolicy(batch_size=10))
        feed(batcher, 1, 9)
        assert not batcher.ready(0.0)

    def test_ready_at_batch_size(self):
        batcher = Batcher("c", BatchPolicy(batch_size=10))
        feed(batcher, 1, 10)
        assert batcher.ready(0.0)

    def test_outstanding_limit_blocks(self):
        batcher = Batcher("c", BatchPolicy(batch_size=5, max_outstanding=1))
        feed(batcher, 1, 10)
        batcher.take_batch(0.0)
        assert not batcher.ready(0.0)
        batcher.batch_done()
        assert batcher.ready(0.0)

    def test_age_flush(self):
        batcher = Batcher("c", BatchPolicy(batch_size=10, max_age=2.0))
        feed(batcher, 1, 3, now=5.0)
        assert not batcher.ready(6.0)
        assert batcher.ready(7.5)

    def test_no_age_flush_when_disabled(self):
        batcher = Batcher("c", BatchPolicy(batch_size=10, max_age=None))
        feed(batcher, 1, 3, now=0.0)
        assert not batcher.ready(1e9)


class TestTakeBatch:
    def test_batch_contents_and_range(self):
        batcher = Batcher("c", BatchPolicy(batch_size=3))
        feed(batcher, 4, 5)
        payload = batcher.take_batch(0.0)
        assert payload.cluster == "c"
        assert payload.sequence == 1
        assert [e.entry_id for e in payload.entries] == ["e4", "e5", "e6"]
        assert payload.local_range == (4, 6)
        assert batcher.next_unbatched == 7
        batcher.batch_done()
        rest = batcher.take_batch(0.0)
        assert [e.entry_id for e in rest.entries] == ["e7", "e8"]

    def test_sequences_increment(self):
        batcher = Batcher("c", BatchPolicy(batch_size=2, max_outstanding=5))
        feed(batcher, 1, 4)
        assert batcher.take_batch(0.0).sequence == 1
        assert batcher.take_batch(0.0).sequence == 2

    def test_interleaved_non_data_skipped(self):
        batcher = Batcher("c", BatchPolicy(batch_size=2))
        batcher.observe_and_check(1, data_entry("a"), 0.0)
        batcher.observe_and_check(2, state_entry("s"), 0.0)
        batcher.observe_and_check(3, data_entry("b"), 0.0)
        payload = batcher.take_batch(0.0)
        assert [e.entry_id for e in payload.entries] == ["a", "b"]
        assert payload.local_range == (1, 3)


class TestCoverage:
    def test_advance_covered_drops_pending(self):
        batcher = Batcher("c", BatchPolicy(batch_size=10))
        feed(batcher, 1, 6)
        batcher.advance_covered(4)
        assert batcher.next_unbatched == 5
        payload = batcher.take_batch(0.0)
        assert [e.entry_id for e in payload.entries] == ["e5", "e6"]

    def test_advance_covered_ignores_stale(self):
        batcher = Batcher("c", BatchPolicy(batch_size=10))
        feed(batcher, 10, 3)
        batcher.advance_covered(12)
        batcher.advance_covered(5)  # stale, no effect
        assert batcher.next_unbatched == 13

    def test_entries_below_next_unbatched_ignored(self):
        batcher = Batcher("c", BatchPolicy(batch_size=1))
        batcher.advance_covered(5)
        assert not batcher.observe_and_check(3, data_entry("old"), 0.0)


class TestRebuild:
    def test_rebuild_from_applied_log(self):
        batcher = Batcher("c", BatchPolicy(batch_size=10))
        applied = [(i, data_entry(f"e{i}")) for i in range(1, 8)]
        applied.insert(3, (99, state_entry("s")))  # non-data ignored
        batcher.rebuild(applied, next_unbatched=4, now=0.0)
        assert batcher.next_unbatched == 4
        payload = batcher.take_batch(0.0)
        assert [e.entry_id for e in payload.entries] == [
            "e4", "e5", "e6", "e7"]

    def test_rebuild_resets_outstanding(self):
        batcher = Batcher("c", BatchPolicy(batch_size=2))
        feed(batcher, 1, 4)
        batcher.take_batch(0.0)
        assert not batcher.ready(0.0)  # the one allowed batch is out
        applied = [(i, data_entry(f"e{i}")) for i in range(1, 5)]
        batcher.rebuild(applied, next_unbatched=3, now=0.0)
        assert batcher.ready(0.0)


class TestPolicyValidation:
    def test_bad_batch_size(self):
        with pytest.raises(ConfigurationError):
            BatchPolicy(batch_size=0)

    def test_bad_adaptive_bounds(self):
        # The bounds are checked against the starting values: unchecked,
        # a slow round shrank batch_size=100 to the ceiling and a fast
        # one grew batch_size=2 to the floor.
        for size in (2, BATCH_FLOOR - 1, BATCH_CEILING + 1, 100):
            with pytest.raises(ConfigurationError):
                BatchPolicy(adaptive=True, batch_size=size)
        with pytest.raises(ConfigurationError):
            BatchPolicy(adaptive=True, batch_size=8,
                        max_outstanding=OUTSTANDING_CEILING + 1)
        BatchPolicy(adaptive=True, batch_size=BATCH_FLOOR,
                    max_outstanding=OUTSTANDING_CEILING)
        BatchPolicy(adaptive=True, batch_size=BATCH_CEILING)

    def test_non_adaptive_skips_adaptive_validation(self):
        # the adaptive bounds do not apply when the controller is off
        BatchPolicy(adaptive=False, batch_size=100,
                    max_outstanding=OUTSTANDING_CEILING + 1)


ADAPTIVE = BatchPolicy(batch_size=8, max_outstanding=1, adaptive=True)
SLOW = 4 * TARGET_COMMIT_LATENCY
FAST = TARGET_COMMIT_LATENCY / 100


class TestAdaptiveController:
    def test_knobs_match_policy_until_fed(self):
        batcher = Batcher("c", ADAPTIVE)
        assert batcher.effective_batch_size == 8
        assert batcher.effective_max_outstanding == 1

    def test_slow_rounds_grow_batch_and_window(self):
        batcher = Batcher("c", ADAPTIVE)
        for _ in range(10):
            batcher.observe_commit_latency(SLOW)
        assert batcher.effective_batch_size > 8
        assert batcher.effective_max_outstanding > 1

    def test_fast_rounds_shrink_back(self):
        batcher = Batcher("c", ADAPTIVE)
        for _ in range(10):
            batcher.observe_commit_latency(SLOW)
        grown = batcher.effective_batch_size
        for _ in range(40):
            batcher.observe_commit_latency(FAST)
        assert batcher.effective_batch_size < grown
        assert batcher.effective_batch_size == BATCH_FLOOR
        assert batcher.effective_max_outstanding == ADAPTIVE.max_outstanding

    def test_bounds_are_hard(self):
        batcher = Batcher("c", ADAPTIVE)
        for _ in range(100):
            batcher.observe_commit_latency(100.0)
        assert batcher.effective_batch_size == BATCH_CEILING
        assert batcher.effective_max_outstanding == OUTSTANDING_CEILING

    def test_on_target_latency_holds_steady(self):
        batcher = Batcher("c", ADAPTIVE)
        for _ in range(10):
            batcher.observe_commit_latency(TARGET_COMMIT_LATENCY)
        assert batcher.effective_batch_size == 8

    def test_non_adaptive_ignores_latency_feed(self):
        batcher = Batcher("c", BatchPolicy(batch_size=4))
        for _ in range(10):
            batcher.observe_commit_latency(100.0)
        assert batcher.effective_batch_size == 4

    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(BATCH_FLOOR, BATCH_CEILING),
           outstanding=st.integers(1, OUTSTANDING_CEILING),
           latencies=st.lists(st.floats(0.0, 10.0), max_size=40))
    def test_size_follows_the_controller_oracle(self, size, outstanding,
                                                latencies):
        """The oracle writes the controller out (EWMA, then a
        +-max(1, size // 4) step clamped to the bounds, the window moved
        by one between the policy's start and the ceiling) in the same
        float operation order."""
        policy = BatchPolicy(batch_size=size, max_outstanding=outstanding,
                             adaptive=True)
        batcher = Batcher("c", policy)
        ewma, want, window = None, size, outstanding
        for latency in latencies:
            batcher.observe_commit_latency(latency)
            ewma = (latency if ewma is None
                    else EWMA_ALPHA * latency + (1.0 - EWMA_ALPHA) * ewma)
            ratio = ewma / TARGET_COMMIT_LATENCY
            if ratio > 1.1:
                want = min(want + max(1, want // 4), BATCH_CEILING)
                window = min(window + 1, OUTSTANDING_CEILING)
            elif ratio < 0.9:
                want = max(want - max(1, want // 4), BATCH_FLOOR)
                window = max(window - 1, outstanding)
            assert batcher.effective_batch_size == want
            assert batcher.effective_max_outstanding == window


class TestFusedObserve:
    def test_observe_and_check_skips_non_data(self):
        batcher = Batcher("c", BatchPolicy(batch_size=1))
        assert not batcher.observe_and_check(1, state_entry("s"), 0.0)


class TestAgeDeadline:
    def test_deadline_tracks_oldest_pending(self):
        batcher = Batcher("c", BatchPolicy(batch_size=10, max_age=2.0))
        assert batcher.age_deadline() is None
        feed(batcher, 1, 1, now=5.0)
        assert batcher.age_deadline() == 7.0
        feed(batcher, 2, 1, now=6.0)  # younger entry: deadline unchanged
        assert batcher.age_deadline() == 7.0

    def test_deadline_none_without_age_flush(self):
        batcher = Batcher("c", BatchPolicy(batch_size=10))
        feed(batcher, 1, 3)
        assert batcher.age_deadline() is None
        assert not batcher.has_age_flush

    def test_take_batch_resets_deadline(self):
        batcher = Batcher("c", BatchPolicy(batch_size=2, max_age=2.0))
        feed(batcher, 1, 2, now=1.0)
        batcher.take_batch(3.0)
        assert batcher.age_deadline() is None


class TestProposalCoalescer:
    def make(self, **overrides):
        defaults = dict(batch_size=3, max_age=0.05)
        defaults.update(overrides)
        return ProposalCoalescer(BatchPolicy(**defaults))

    def test_flush_ready_at_batch_size(self):
        coalescer = self.make()
        assert not coalescer.add("r1", "m1", "c1", 0.0)
        assert not coalescer.add("r2", "m2", "c2", 0.0)
        assert coalescer.add("r3", "m3", "c3", 0.0)
        assert coalescer.pending_count == 3

    def test_drain_empties_and_orders(self):
        coalescer = self.make()
        coalescer.add("r1", "m1", "c1", 0.0)
        coalescer.add("r2", "m2", "c2", 0.0)
        assert coalescer.drain() == [("m1", "c1"), ("m2", "c2")]
        assert coalescer.pending_count == 0
        assert coalescer.age_deadline() is None

    def test_duplicate_ids_coalesce_keeping_first_sender(self):
        coalescer = self.make()
        coalescer.add("r1", "m1", "c1", 0.0)
        coalescer.add("r1", "m1-retry", "c9", 0.0)
        assert coalescer.pending_count == 1
        assert coalescer.drain() == [("m1", "c1")]

    def test_age_deadline_from_first_pending(self):
        coalescer = self.make(max_age=0.5)
        coalescer.add("r1", "m1", "c1", 2.0)
        coalescer.add("r2", "m2", "c2", 3.0)
        assert coalescer.age_deadline() == 2.5

    def test_no_max_age_means_flush_now(self):
        coalescer = self.make(max_age=None)
        coalescer.add("r1", "m1", "c1", 2.0)
        assert coalescer.age_deadline() == 2.0

    def test_adaptive_policy_rejected(self):
        # The coalescer flushes at a fixed size; an adaptive policy would
        # otherwise be silently treated as a fixed one.
        with pytest.raises(ConfigurationError):
            self.make(batch_size=8, adaptive=True)
