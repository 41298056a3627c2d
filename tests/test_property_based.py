"""Property-based tests (hypothesis) for core data structures."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.consensus.config import Configuration
from repro.consensus.entry import EntryKind, InsertedBy, LogEntry
from repro.consensus.log import RaftLog
from repro.consensus.quorum import (
    classic_quorum_size,
    classic_reached,
    fast_quorum_size,
    has_classic_quorum,
    has_fast_quorum,
    quorum_intersection_ok,
)
from repro.fastraft.votes import PossibleEntries
from repro.metrics.summary import percentile, summarize
from repro.net.latency import BandwidthLatencyModel, ConstantLatency
from repro.sim.loop import SimLoop
from repro.sim.rng import RngRegistry
from repro.snapshot import Snapshot
from repro.snapshot.chunking import (
    ChunkAssembler,
    chunk_offsets,
    deserialize_snapshot,
    serialize_snapshot,
)


def entry(entry_id: str) -> LogEntry:
    return LogEntry(entry_id=entry_id, kind=EntryKind.DATA, payload=None,
                    origin="n0", term=1, inserted_by=InsertedBy.SELF)


class TestQuorumProperties:
    @given(st.integers(min_value=1, max_value=2000))
    def test_two_classic_quorums_intersect(self, members):
        assert 2 * classic_quorum_size(members) > members

    @given(st.integers(min_value=1, max_value=2000))
    def test_fast_quorum_plurality_condition(self, members):
        """Zhao's condition (Lemma 2) for every configuration size."""
        assert quorum_intersection_ok(members)

    @given(st.integers(min_value=1, max_value=2000))
    def test_fast_quorum_bounds(self, members):
        fq = fast_quorum_size(members)
        assert classic_quorum_size(members) <= fq <= members

    @given(st.sets(st.text(min_size=1, max_size=4), min_size=1,
                   max_size=12))
    def test_configuration_quorum_checks_consistent(self, names):
        config = Configuration(tuple(names))
        assert has_classic_quorum(config, set(config.members))
        assert has_fast_quorum(config, set(config.members))
        below = set(list(config.members)[:config.classic_quorum - 1])
        assert not has_classic_quorum(config, below)

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1,
                    max_size=12))
    def test_classic_reached_is_what_a_classic_quorum_covers(self, values):
        """The order statistic, stated naively: the highest value that
        at least a classic quorum of the members' values reach."""
        config = Configuration(tuple(f"m{i}" for i in range(len(values))))
        naive = max(v for v in values
                    if sum(1 for w in values if w >= v)
                    >= config.classic_quorum)
        assert classic_reached(config, values) == naive


class TestLogProperties:
    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=30),
                              st.text(min_size=1, max_size=3)),
                    max_size=40))
    def test_insert_sequence_invariants(self, operations):
        """After arbitrary inserts/overwrites: last_index is the max
        occupied slot; the id index matches slot contents exactly."""
        log = RaftLog()
        expected: dict[int, str] = {}
        for index, entry_id in operations:
            log.insert(index, entry(entry_id))
            expected[index] = entry_id
        assert log.last_index == (max(expected) if expected else 0)
        assert [i for i, _ in log] == sorted(expected)
        for index, entry_id in expected.items():
            assert log.get(index).entry_id == entry_id
        for index, entry_id in expected.items():
            assert index in log.indices_of(entry_id)

    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=30),
                              st.text(min_size=1, max_size=3)),
                    max_size=40),
           st.integers(min_value=1, max_value=31))
    def test_truncate_removes_exactly_suffix(self, operations, cut):
        log = RaftLog()
        expected: dict[int, str] = {}
        for index, entry_id in operations:
            log.insert(index, entry(entry_id))
            expected[index] = entry_id
        log.truncate_from(cut)
        survivors = {i: e for i, e in expected.items() if i < cut}
        assert [i for i, _ in log] == sorted(survivors)
        for index in expected:
            if index >= cut:
                assert log.get(index) is None
        # id index consistent after truncation
        for index, entry_id in survivors.items():
            assert index in log.indices_of(entry_id)

    @given(st.lists(st.integers(min_value=1, max_value=20), min_size=1,
                    max_size=30))
    def test_committed_index_of_monotone(self, indices):
        """Raising the commit index never hides a committed duplicate."""
        log = RaftLog()
        for index in indices:
            log.insert(index, entry("dup"))
        results = [log.committed_index_of("dup", c) for c in range(0, 22)]
        seen = None
        for result in results:
            if result is not None:
                seen = result
                assert result == min(log.indices_of("dup"))
        assert seen is not None


class TestVoteBookProperties:
    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=6),
                              st.sampled_from(["a", "b", "c"]),
                              st.sampled_from(["n1", "n2", "n3", "n4"])),
                    max_size=40))
    def test_one_vote_per_site_per_index(self, votes):
        """However votes arrive (including revotes), a site holds at most
        one live vote per index."""
        book = PossibleEntries()
        for index, value, voter in votes:
            book.add_vote(index, entry(value), voter)
        for index in book.indices():
            seen: set[str] = set()
            for record in book.candidates(index):
                assert not (record.voters & seen), "double-counted voter"
                seen |= record.voters

    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=6),
                              st.sampled_from(["a", "b", "c"]),
                              st.sampled_from(["n1", "n2", "n3"])),
                    max_size=30),
           st.sampled_from(["a", "b", "c"]),
           st.integers(min_value=1, max_value=6))
    def test_null_out_preserves_voter_counts(self, votes, chosen_id, keep):
        book = PossibleEntries()
        for index, value, voter in votes:
            book.add_vote(index, entry(value), voter)
        before = {i: book.voters_at(i) for i in book.indices()}
        book.null_out(chosen_id, except_index=keep)
        for index, voters in before.items():
            assert book.voters_at(index) == voters


class TestSummaryProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    def test_summary_bounds(self, values):
        stats = summarize(values)
        assert stats.minimum <= stats.median <= stats.maximum
        assert stats.minimum <= stats.mean <= stats.maximum
        assert stats.p5 <= stats.p95

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=2, max_size=50),
           st.floats(min_value=0, max_value=1))
    def test_percentile_within_range(self, values, fraction):
        ordered = sorted(values)
        result = percentile(ordered, fraction)
        assert ordered[0] <= result <= ordered[-1]


#: Arbitrary JSON-ish machine states for snapshot payload properties.
machine_states = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20)


class TestChunkingProperties:
    @given(machine_states, st.integers(min_value=1, max_value=4096))
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_chunk_then_reassemble_is_identity(self, state, chunk_size):
        """For any snapshot payload and chunk_size >= 1, splitting the
        wire form into chunks and reassembling them (in any arrival
        order -- reversed here, the worst case) reproduces the snapshot
        exactly."""
        snapshot = Snapshot(last_included_index=5, last_included_term=2,
                            machine_state=state, origin="n0")
        data = serialize_snapshot(snapshot)
        pieces = chunk_offsets(len(data), chunk_size)
        assert sum(length for _, length in pieces) == len(data)
        assembler = ChunkAssembler(5, 2, 1, len(data))
        for offset, length in reversed(pieces):
            assembler.add(offset, data[offset:offset + length])
        assert assembler.complete
        assert deserialize_snapshot(assembler.assemble()) == snapshot

    @given(st.integers(min_value=0, max_value=20_000),
           st.integers(min_value=0, max_value=20_000),
           st.integers(min_value=1, max_value=4096),
           st.floats(min_value=1.0, max_value=1e9, allow_nan=False))
    @settings(deadline=None, max_examples=60)
    def test_charged_latency_monotone_in_payload_size(
            self, size_a, size_b, chunk_size, bandwidth):
        """Total charged transfer latency (every chunk's serialization
        plus propagation) never decreases when the payload grows."""
        model = BandwidthLatencyModel(ConstantLatency(0.01), bandwidth)
        rng = RngRegistry(0).stream("x")

        def total_charge(size: int) -> float:
            return sum(
                model.transfer_delay(rng, "a", "b", length)
                for _, length in chunk_offsets(size, chunk_size))
        small, big = sorted((size_a, size_b))
        assert total_charge(small) <= total_charge(big)

    @given(st.integers(min_value=0, max_value=20_000),
           st.integers(min_value=1, max_value=4096))
    @settings(deadline=None, max_examples=60)
    def test_monolithic_and_chunked_charge_same_bytes(self, size,
                                                      chunk_size):
        """Chunking redistributes the payload, it never shrinks it."""
        pieces = chunk_offsets(size, chunk_size)
        assert sum(length for _, length in pieces) == size
        offsets = [offset for offset, _ in pieces]
        assert offsets == sorted(set(offsets))


class TestSchedulerProperties:
    @given(st.lists(st.floats(min_value=0, max_value=100,
                              allow_nan=False), max_size=50))
    def test_events_fire_in_time_order(self, delays):
        loop = SimLoop()
        fired: list[float] = []
        for delay in delays:
            loop.call_later(delay, lambda d=delay: fired.append(loop.now()))
        loop.run_until_idle()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.integers(), st.text(min_size=1, max_size=8))
    def test_rng_streams_deterministic(self, seed, name):
        a = RngRegistry(seed).stream(name).random()
        b = RngRegistry(seed).stream(name).random()
        assert a == b
