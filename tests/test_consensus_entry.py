"""Tests for log entries and payloads."""

from repro.consensus.entry import (
    BatchPayload,
    ConfigPayload,
    EntryKind,
    GlobalStatePayload,
    InsertedBy,
    LogEntry,
    make_entry_id,
    make_noop,
)


def entry(entry_id="c1:1", term=1, inserted_by=InsertedBy.SELF,
          kind=EntryKind.DATA, payload="x", origin="n0"):
    return LogEntry(entry_id=entry_id, kind=kind, payload=payload,
                    origin=origin, term=term, inserted_by=inserted_by)


class TestLogEntry:
    def test_make_entry_id(self):
        assert make_entry_id("n0", 5) == "n0:5"

    def test_with_mark_changes_stamp_only(self):
        original = entry()
        marked = original.with_mark(4, InsertedBy.LEADER)
        assert marked.term == 4
        assert marked.inserted_by is InsertedBy.LEADER
        assert marked.entry_id == original.entry_id
        assert marked.payload == original.payload
        # immutable: original untouched
        assert original.term == 1
        assert original.inserted_by is InsertedBy.SELF

    def test_noop_ids_unique(self):
        a = make_noop("n0", 1)
        b = make_noop("n0", 1)
        assert a.entry_id != b.entry_id


class TestConfigPayload:
    def test_members_sorted(self):
        payload = ConfigPayload(members=("b", "a", "c"))
        assert payload.members == ("a", "b", "c")


class TestGlobalStatePayload:
    def test_carries_inserts_and_commit(self):
        ge = entry(entry_id="batch1")
        payload = GlobalStatePayload(inserts=((3, ge),), global_commit=2)
        assert payload.inserts[0][0] == 3
        assert payload.global_commit == 2

    def test_empty_marker(self):
        payload = GlobalStatePayload(inserts=(), global_commit=7)
        assert payload.inserts == ()


class TestBatchPayload:
    def test_len_counts_entries(self):
        entries = tuple(entry(entry_id=f"e{i}") for i in range(3))
        payload = BatchPayload(cluster="us", sequence=1, entries=entries,
                               local_range=(4, 6))
        assert len(payload) == 3
        assert payload.local_range == (4, 6)
