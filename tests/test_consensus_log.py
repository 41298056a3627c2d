"""Tests for the replicated log (holes, overwrite, provenance)."""

import copy
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.consensus.entry import EntryKind, InsertedBy, LogEntry, ConfigPayload
from repro.consensus.log import RaftLog
from repro.errors import LogError


def entry(entry_id, term=1, inserted_by=InsertedBy.SELF,
          kind=EntryKind.DATA, payload=None):
    return LogEntry(entry_id=entry_id, kind=kind, payload=payload,
                    origin="n0", term=term, inserted_by=inserted_by)


class TestBasics:
    def test_empty_log(self):
        log = RaftLog()
        assert log.last_index == 0
        assert list(log) == []
        assert log.get(1) is None
        assert not log.has(1)

    def test_append_assigns_sequential_indices(self):
        log = RaftLog()
        assert log.append(entry("a")) == 1
        assert log.append(entry("b")) == 2
        assert log.last_index == 2

    def test_insert_at_arbitrary_index_leaves_hole(self):
        log = RaftLog()
        log.insert(5, entry("e5"))
        assert log.last_index == 5
        assert log.get(5).entry_id == "e5"
        assert log.get(3) is None
        assert [i for i, _ in log] == [5]

    def test_insert_below_one_rejected(self):
        with pytest.raises(LogError):
            RaftLog().insert(0, entry("x"))

    def test_overwrite_replaces(self):
        log = RaftLog()
        log.insert(1, entry("old"))
        log.insert(1, entry("new"))
        assert log.get(1).entry_id == "new"
        assert log.indices_of("old") == set()

    def test_term_at_sentinel(self):
        assert RaftLog().term_at(0) == 0

    def test_term_at_hole_raises(self):
        log = RaftLog()
        log.insert(3, entry("x"))
        with pytest.raises(LogError):
            log.term_at(2)

    def test_iteration_in_index_order(self):
        log = RaftLog()
        log.insert(3, entry("c"))
        log.insert(1, entry("a"))
        assert [i for i, _ in log] == [1, 3]


class TestTruncate:
    def test_truncate_removes_suffix(self):
        log = RaftLog()
        for name in ("a", "b", "c"):
            log.append(entry(name))
        log.truncate_from(2)
        assert log.last_index == 1
        assert log.get(2) is None
        assert log.indices_of("b") == set()

    def test_truncate_with_holes(self):
        log = RaftLog()
        log.insert(1, entry("a"))
        log.insert(5, entry("e"))
        log.truncate_from(3)
        assert log.last_index == 1

    def test_truncate_everything(self):
        log = RaftLog()
        log.append(entry("a"))
        log.truncate_from(1)
        assert log.last_index == 0
        assert list(log) == []

    def test_truncate_invalid_index(self):
        with pytest.raises(LogError):
            RaftLog().truncate_from(0)


class TestRangesAndProvenance:
    def test_entries_between_skips_holes(self):
        log = RaftLog()
        log.insert(1, entry("a"))
        log.insert(3, entry("c"))
        got = log.entries_between(1, 3)
        assert [i for i, _ in got] == [1, 3]

    def test_last_with_provenance(self):
        log = RaftLog()
        log.insert(1, entry("a", inserted_by=InsertedBy.LEADER))
        log.insert(2, entry("b", inserted_by=InsertedBy.SELF))
        log.insert(3, entry("c", inserted_by=InsertedBy.LEADER))
        log.insert(4, entry("d", inserted_by=InsertedBy.SELF))
        assert log.last_with_provenance(InsertedBy.LEADER) == 3
        assert log.last_with_provenance(InsertedBy.SELF) == 4

    def test_last_with_provenance_empty(self):
        assert RaftLog().last_with_provenance(InsertedBy.LEADER) == 0

    def test_entries_with_provenance(self):
        log = RaftLog()
        log.insert(1, entry("a", inserted_by=InsertedBy.LEADER))
        log.insert(2, entry("b", inserted_by=InsertedBy.SELF))
        self_entries = log.entries_with_provenance(InsertedBy.SELF)
        assert [(i, e.entry_id) for i, e in self_entries] == [(2, "b")]

    def test_latest_config_entry(self):
        log = RaftLog()
        log.insert(1, entry("c1", kind=EntryKind.CONFIG,
                            payload=ConfigPayload(("a",))))
        log.insert(2, entry("d1"))
        log.insert(3, entry("c2", kind=EntryKind.CONFIG,
                            payload=ConfigPayload(("a", "b"))))
        assert log.config_at(4, 3, (0, None, ())) == (0, ("a", "b"), ())

    def test_latest_config_entry_none(self):
        assert RaftLog().config_at(1, 0, (0, None, ())) == (0, None, ())


class TestDuplicateDetection:
    def test_indices_of_tracks_multiple(self):
        log = RaftLog()
        log.insert(1, entry("dup"))
        log.insert(4, entry("dup"))
        assert log.indices_of("dup") == {1, 4}

    def test_committed_index_of(self):
        log = RaftLog()
        log.insert(1, entry("a"))
        log.insert(3, entry("a"))
        assert log.committed_index_of("a", commit_index=0) is None
        assert log.committed_index_of("a", commit_index=1) == 1
        assert log.committed_index_of("a", commit_index=5) == 1
        assert log.committed_index_of("missing", commit_index=5) is None

    def test_overwrite_updates_id_index(self):
        log = RaftLog()
        log.insert(2, entry("a"))
        log.insert(2, entry("b"))
        assert log.indices_of("a") == set()
        assert log.indices_of("b") == {2}


class TestIndexedLookupsMatchFullScans:
    """``config_at`` / ``max_config_version`` read a tracked set
    of CONFIG indices and ``committed_index_of`` the id reverse map, both
    maintained incrementally by every mutation. The full index-ordered
    scans written here are the plain statement they must agree with."""

    #: Bases below the log: none, a bootstrap at version 0, and a
    #: snapshot's configuration that drawn versions tie, beat or lose to.
    BASES = [(0, None, ()), (0, ("boot",), ()), (2, ("snap",), ("obs",))]

    @staticmethod
    def scan_config(log, k, committed, base):
        best_key, best = None, None
        for index, e in log:  # every occupied slot, index order
            if e.kind is not EntryKind.CONFIG:
                continue
            if index >= k:
                continue
            if (index > committed
                    and e.inserted_by is not InsertedBy.LEADER):
                continue  # tentative: self-approved above the commit
            key = (e.payload.version, index)
            if best_key is None or key > best_key:
                best_key, best = key, e.payload
        if best is None or (base[1] is not None and best.version < base[0]):
            return base
        return best.version, best.members, best.observers

    @staticmethod
    def apply(log, op):
        """One mutation, its raw index resolved against the log's current
        shape so that every drawn sequence is legal."""
        action, raw, entry_id, is_config, by_leader, version, term = op
        floor = log.snapshot_index
        if action in ("insert", "append"):
            index = (log.last_index + 1 if action == "append"
                     else floor + 1 + raw)
            # The member names the slot, so a pick from the wrong index
            # shows even between equal versions.
            payload = (ConfigPayload((f"s{index}",), version=version)
                       if is_config else None)
            new = entry(entry_id, term=term,
                        inserted_by=(InsertedBy.LEADER if by_leader
                                     else InsertedBy.SELF),
                        kind=EntryKind.CONFIG if is_config else EntryKind.DATA,
                        payload=payload)
            if action == "append":
                log.append(new)
            else:  # may land on an occupant (overwrite) or leave holes
                log.insert(index, new)
        elif action == "truncate":
            log.truncate_from(floor + 1 + raw)
        elif action == "compact":
            occupied = [i for i, _ in log]
            if occupied:
                log.compact_to(occupied[raw % len(occupied)])
        else:  # install: an external anchor, possibly beyond last_index
            log.install_snapshot(floor + raw, term)

    @given(st.lists(st.tuples(
        st.sampled_from(["insert", "insert", "insert", "append",
                         "truncate", "compact", "install"]),
        st.integers(min_value=0, max_value=9),       # raw index
        st.sampled_from(["a", "b", "c", "d"]),       # ids repeat across slots
        st.booleans(),                               # CONFIG or DATA
        st.booleans(),                               # leader- or self-approved
        st.integers(min_value=0, max_value=3),       # config version
        st.integers(min_value=1, max_value=3),       # term
    ), max_size=30))
    # The case the version rule exists for (ConfigPayload): a stalled,
    # lower-version change decided after a newer one lands leader-approved
    # at a higher index, and the newer one still governs. Ordering CONFIG
    # entries by index alone passes every other test of the tree.
    @example(ops=[("insert", 0, "a", True, True, 2, 1),
                  ("insert", 2, "b", True, True, 1, 1)])
    @settings(deadline=None, max_examples=200)
    def test_after_every_mutation(self, ops):
        log = RaftLog()
        for op in ops:
            self.apply(log, op)
            assert log._config_indices == {
                i for i, e in log if e.kind is EntryKind.CONFIG}
            assert log.max_config_version() == max(
                (getattr(e.payload, "version", 0) for _, e in log
                 if e.kind is EntryKind.CONFIG), default=0)
            # Nothing is held at or below the compaction point, so 0
            # stands for every bound down there.
            live = [0, *range(log.snapshot_index, log.last_index + 2)]
            for k in (1, *range(log.snapshot_index + 1, log.last_index + 3)):
                for committed in live:
                    for base in self.BASES:
                        assert (log.config_at(k, committed, base)
                                == self.scan_config(log, k, committed, base))
            self.check_reverse_index(log, "abcd")

    @staticmethod
    def check_reverse_index(log, entry_ids):
        """``indices_of`` / ``committed_index_of`` against full scans, and
        the map's own shape: an ``int`` for an id in one slot, a ``set``
        only for an id in several, nothing for an id in none."""
        live = [0, *range(log.snapshot_index, log.last_index + 2)]
        for entry_id in entry_ids:
            scanned = {i for i, e in log if e.entry_id == entry_id}
            held = log.indices_of(entry_id)
            assert held == scanned
            held.add(-1)  # a fresh set: the caller's to mutate
            assert log.indices_of(entry_id) == scanned
            assert log.highest_index_of(entry_id) == max(scanned, default=0)
            for commit in live:
                assert (log.committed_index_of(entry_id, commit)
                        == min((i for i in scanned if i <= commit),
                               default=None))
            raw = log._id_indices.get(entry_id)
            if len(scanned) > 1:
                assert type(raw) is set and raw == scanned
            elif scanned:
                assert type(raw) is int and {raw} == scanned
            else:
                assert entry_id not in log._id_indices
        assert set(log._id_indices) == {e.entry_id for _, e in log}

    @pytest.mark.parametrize("shrink", [
        # each returns the slots of "a" that survive it, out of {2, 5, 7}
        lambda log: log.insert(5, entry("z")) or {2, 7},     # overwrite one
        lambda log: log.truncate_from(6) or {2, 5},          # drop the top
        lambda log: log.truncate_from(3) or {2},             # set -> int
        lambda log: log.truncate_from(1) or set(),           # set -> gone
        lambda log: log.compact_to(2) and {5, 7},            # drop the bottom
        lambda log: log.compact_to(6) and {7},               # set -> int
        lambda log: log.compact_to(7) and set(),             # set -> gone
        lambda log: log.install_snapshot(9, 1) and set(),    # beyond the log
    ], ids=["overwrite", "truncate-1", "truncate-2", "truncate-all",
            "compact-1", "compact-2", "compact-all", "install-all"])
    def test_one_id_through_int_set_int_gone(self, shrink):
        log = RaftLog()
        ids = ("a", "b", "z")
        for index, entry_id in [(1, "b"), (2, "a"), (5, "a"), (6, "b"),
                                (7, "a")]:            # "a": int, set of 2, of 3
            log.insert(index, entry(entry_id))
            self.check_reverse_index(log, ids)
        log.insert(5, entry("a", term=2, inserted_by=InsertedBy.LEADER))
        self.check_reverse_index(log, ids)            # restamped in place
        survivors = shrink(log)
        assert log.indices_of("a") == survivors
        self.check_reverse_index(log, ids)
        while survivors:                              # ... down to gone
            log.insert(survivors.pop(), entry("z"))
            self.check_reverse_index(log, ids)
        log.insert(log.last_index + 1, entry("a"))    # and back as an int
        self.check_reverse_index(log, ids)


def test_single_slot_ids_retain_no_container_each():
    """10,000 distinct ids, one slot each: the reverse map must cost one
    dict slot per id, not a container per id (with a ``set`` per id an
    insert retained ~290 bytes, the largest live allocation of every
    suite workload; now ~80)."""
    entries = [entry(f"c{i}.{i}") for i in range(1, 10_001)]
    log = RaftLog()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index, e in enumerate(entries, start=1):
            log.insert(index, e)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(type(held) is int for held in log._id_indices.values())
    # What is left: two dicts' slots (resize slack included) and the
    # index ints above the small-int cache.
    assert grown / len(entries) < 150


def test_a_deep_copied_log_reads_its_own_slots():
    """``mc.fork_world`` deep-copies logs: every query of the copy must
    answer from the copy's state (an instance-cached bound builtin such
    as ``self._slots.get`` would keep answering from the original)."""
    log = RaftLog()
    for index in (1, 2, 3):
        log.insert(index, entry(f"e{index}"))
    log.compact_to(1)
    clone = copy.deepcopy(log)
    clone.insert(4, entry("only-in-clone", kind=EntryKind.CONFIG))
    clone.compact_to(2)
    assert clone.get(4).entry_id == "only-in-clone" and log.get(4) is None
    assert (clone.last_index, log.last_index) == (4, 3)
    assert (clone.snapshot_index, log.snapshot_index) == (2, 1)
    assert (clone._config_indices, log._config_indices) == ({4}, set())
    assert clone.get(2) is None and log.get(2).entry_id == "e2"
    assert clone.highest_index_of("only-in-clone") == 4
    assert log.highest_index_of("only-in-clone") == 0
    log.insert(4, entry("only-in-original"))
    assert clone.get(4).entry_id == "only-in-clone"
    assert clone.indices_of("only-in-original") == set()
