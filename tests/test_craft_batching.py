"""Tests for the C-Raft batcher (pure logic)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.entry import EntryKind, InsertedBy, LogEntry
from repro.craft.batching import Batcher, BatchPolicy


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
        import pytest
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            BatchPolicy(batch_size=0)

    def test_bad_adaptive_bounds(self):
        import pytest
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            BatchPolicy(adaptive=True, batch_floor=10, batch_ceiling=5)
        with pytest.raises(ConfigurationError):
            BatchPolicy(adaptive=True, age_floor=2.0, age_ceiling=1.0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(adaptive=True, max_outstanding=4,
                        outstanding_ceiling=2)
        with pytest.raises(ConfigurationError):
            BatchPolicy(adaptive=True, ewma_alpha=0.0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(adaptive=True, target_commit_latency=0.0)

    def test_non_adaptive_skips_adaptive_validation(self):
        # inert bounds are not validated when the controller is off
        BatchPolicy(adaptive=False, batch_floor=10, batch_ceiling=5)


ADAPTIVE = BatchPolicy(batch_size=4, max_outstanding=1, adaptive=True,
                       batch_floor=2, batch_ceiling=32,
                       outstanding_ceiling=4, target_commit_latency=0.5)


class TestAdaptiveController:
    def test_knobs_match_policy_until_fed(self):
        batcher = Batcher("c", ADAPTIVE)
        assert batcher.effective_batch_size == 4
        assert batcher.effective_max_outstanding == 1

    def test_slow_rounds_grow_batch_and_window(self):
        batcher = Batcher("c", ADAPTIVE)
        for _ in range(10):
            batcher.observe_commit_latency(2.0)  # 4x the target
        assert batcher.effective_batch_size > 4
        assert batcher.effective_max_outstanding > 1

    def test_fast_rounds_shrink_back(self):
        batcher = Batcher("c", ADAPTIVE)
        for _ in range(10):
            batcher.observe_commit_latency(2.0)
        grown = batcher.effective_batch_size
        for _ in range(40):
            batcher.observe_commit_latency(0.01)
        assert batcher.effective_batch_size < grown
        assert batcher.effective_batch_size >= ADAPTIVE.batch_floor
        assert batcher.effective_max_outstanding == ADAPTIVE.max_outstanding

    def test_bounds_are_hard(self):
        batcher = Batcher("c", ADAPTIVE)
        for _ in range(100):
            batcher.observe_commit_latency(100.0)
        assert batcher.effective_batch_size == ADAPTIVE.batch_ceiling
        assert (batcher.effective_max_outstanding
                == ADAPTIVE.outstanding_ceiling)

    def test_on_target_latency_holds_steady(self):
        batcher = Batcher("c", ADAPTIVE)
        for _ in range(10):
            batcher.observe_commit_latency(0.5)  # exactly on target
        assert batcher.effective_batch_size == 4

    def test_byte_ceiling_caps_count(self):
        policy = BatchPolicy(batch_size=8, adaptive=True, batch_floor=1,
                             batch_ceiling=64, target_commit_latency=0.5,
                             target_batch_bytes=64)
        batcher = Batcher("c", policy)
        feed(batcher, 1, 8)
        batcher.take_batch(0.0)  # seeds the per-entry byte EWMA
        batcher.batch_done()
        batcher.observe_commit_latency(5.0)  # latency asks for growth...
        # ...but the byte cap holds the effective size down
        assert (batcher.effective_batch_size
                <= max(1, 64 // 8))

    def test_non_adaptive_ignores_latency_feed(self):
        batcher = Batcher("c", BatchPolicy(batch_size=4))
        for _ in range(10):
            batcher.observe_commit_latency(100.0)
        assert batcher.effective_batch_size == 4


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
        from repro.craft.batching import ProposalCoalescer
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

    def test_adaptive_flush_size(self):
        coalescer = self.make(adaptive=True, batch_floor=1,
                              batch_ceiling=16,
                              target_commit_latency=0.5)
        for _ in range(10):
            coalescer.observe_commit_latency(5.0)
        for i in range(3):
            assert not coalescer.add(f"r{i}", "m", "c", 0.0)
        for _ in range(40):
            coalescer.observe_commit_latency(0.01)
        coalescer.drain()
        assert coalescer.add("r9", "m", "c", 0.0)  # back at the floor

    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(1, 32), floor=st.integers(1, 32),
           ceiling=st.integers(1, 64),
           target=st.floats(0.01, 2.0), alpha=st.floats(0.01, 1.0),
           latencies=st.lists(st.floats(0.0, 10.0), max_size=40))
    def test_flush_size_follows_the_batcher_controller(
            self, size, floor, ceiling, target, alpha, latencies):
        """The flush size is the Batcher's adaptive size: the oracle
        writes the controller out (EWMA, then a +-max(1, size // 4) step
        clamped to the bounds) in the same float operation order."""
        floor, ceiling = min(floor, ceiling), max(floor, ceiling)
        size = min(max(size, floor), ceiling)
        coalescer = self.make(batch_size=size, adaptive=True,
                              batch_floor=floor, batch_ceiling=ceiling,
                              target_commit_latency=target, ewma_alpha=alpha)
        ewma, want = None, size
        for latency in latencies:
            coalescer.observe_commit_latency(latency)
            ewma = (latency if ewma is None
                    else alpha * latency + (1.0 - alpha) * ewma)
            ratio = ewma / target
            if ratio > 1.1:
                want = min(want + max(1, want // 4), ceiling)
            elif ratio < 0.9:
                want = max(want - max(1, want // 4), floor)
            for i in range(want - 1):
                assert not coalescer.add(f"r{i}", "m", "c", 0.0)
            assert coalescer.add("last", "m", "c", 0.0)
            coalescer.drain()
