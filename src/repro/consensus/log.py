"""The replicated log.

Indices start at 1 (index 0 is the empty-log sentinel with term 0, as in
the Raft papers). Unlike classic Raft's append-only list, Fast Raft inserts
entries at arbitrary indices -- "site a may miss a proposal for an entry at
index j < i ... leaving index j empty" -- and overwrites entries when the
leader approves a different one. The log is therefore a sparse map with
explicit support for holes, overwrite, and (for the classic baseline)
suffix truncation.

An ``entry_id -> indices`` reverse map supports duplicate detection
("If entry is duplicate and committed, notify proposer"). Nearly every
id sits in exactly one slot, so the map holds a bare ``int`` for that
case and a ``set`` only while an id occupies several (a client retry
that landed twice, a Fast Raft re-proposal); it goes back to the ``int``
when all but one are overwritten, truncated or compacted away.

Compaction: a committed prefix can be dropped wholesale once a snapshot
covers it (:meth:`RaftLog.compact_to` / :meth:`RaftLog.install_snapshot`).
The log then remembers only the compaction point's ``(index, term)`` --
the anchor AppendEntries consistency checks still need -- and refuses any
access below it. Sparse-slot/hole semantics are untouched above the
compaction point.

``last_index``, ``snapshot_index`` and ``snapshot_term`` are plain
instance attributes that **only the log's own methods write**: every
engine handler reads them, several times per message, and a property
costs an interpreter frame to return one field. Everyone else reads
them and mutates the log through ``insert`` / ``truncate_from`` /
``compact_to`` / ``install_snapshot``. The log is deep-copied by
``mc``'s world fork, so it caches no bound *builtin* on itself
(``copy.deepcopy`` treats those as atomic; see :meth:`RaftLog.get`).
"""

from __future__ import annotations

from typing import Iterator

from repro.consensus.entry import EntryKind, InsertedBy, LogEntry
from repro.errors import LogError

#: ``(version, members, observers)`` of a configuration; ``(0, None, ())``
#: when nothing establishes one (see :meth:`RaftLog.config_at`).
ConfigTriple = tuple[int, tuple[str, ...] | None, tuple[str, ...]]


class RaftLog:
    """Sparse 1-indexed log with provenance-aware slots."""

    def __init__(self) -> None:
        self._slots: dict[int, LogEntry] = {}
        #: Highest occupied index (``lastLogIndex``), or the compaction
        #: point when nothing is retained above it; 0 when empty.
        self.last_index = 0
        #: entry id -> its index, or the set of its indices when it
        #: holds more than one slot (never a set of fewer than two).
        self._id_indices: dict[str, int | set[int]] = {}
        # Indices currently holding CONFIG entries, maintained on every
        # insert/remove, so the governing-config lookup costs O(#configs)
        # instead of an index-ordered scan of the whole log (which, run
        # per message, was once the hottest line of the simulation).
        self._config_indices: set[int] = set()
        #: Compaction point: every index at or below it has been dropped
        #: and is covered by a snapshot -- ``snapshot_index`` the highest
        #: such index, ``snapshot_term`` the term of the entry that sat
        #: there. (0, 0) doubles as the classic index-0 sentinel of an
        #: uncompacted log.
        self.snapshot_index = 0
        self.snapshot_term = 0

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def first_retained_index(self) -> int:
        """Lowest index this log can still hold an entry for."""
        return self.snapshot_index + 1

    def get(self, index: int) -> LogEntry | None:
        """Entry at ``index`` or None (hole / out of range).

        Stays a method: an instance-cached ``self._slots.get`` would be
        a bound *builtin*, which ``copy.deepcopy`` copies atomically --
        a forked log would read its parent's slots."""
        return self._slots.get(index)

    def has(self, index: int) -> bool:
        return index in self._slots

    def term_at(self, index: int) -> int:
        """Term of the entry at ``index``; the snapshot term at the
        compaction point (which is the index-0 sentinel term 0 when the
        log was never compacted).

        Raises :class:`LogError` for a hole or a compacted index, because
        callers comparing terms there are making a protocol error.
        """
        if index == self.snapshot_index:
            return self.snapshot_term
        if index < self.snapshot_index:
            raise LogError(f"index {index} compacted "
                           f"(snapshot at {self.snapshot_index})")
        entry = self._slots.get(index)
        if entry is None:
            raise LogError(f"no entry at index {index}")
        return entry.term

    def __iter__(self) -> Iterator[tuple[int, LogEntry]]:
        """Iterate occupied ``(index, entry)`` pairs in index order."""
        for index in sorted(self._slots):
            yield index, self._slots[index]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, index: int, entry: LogEntry) -> None:
        """Place ``entry`` at ``index``, overwriting any occupant.

        Fast Raft semantics: followers insert proposals into empty slots
        and the leader's AppendEntries overwrites conflicting ones. The
        caller decides *whether* overwriting is legal; the log only
        records.
        """
        if index < 1:
            raise LogError(f"log indices start at 1: {index!r}")
        if index <= self.snapshot_index:
            raise LogError(f"cannot insert at compacted index {index} "
                           f"(snapshot at {self.snapshot_index})")
        entry_id = entry.entry_id
        old = self._slots.get(index)
        if old is not None and old.kind is EntryKind.CONFIG:
            self._config_indices.discard(index)
        self._slots[index] = entry
        # A restamped copy of the occupant (leader approval) leaves the
        # reverse map as it is.
        if old is None or old.entry_id != entry_id:
            if old is not None:
                self._unindex(old.entry_id, index)
            ids = self._id_indices
            held = ids.get(entry_id)
            if held is None:
                ids[entry_id] = index
            elif held.__class__ is int:
                ids[entry_id] = {held, index}
            else:
                held.add(index)
        if entry.kind is EntryKind.CONFIG:
            self._config_indices.add(index)
        if index > self.last_index:
            self.last_index = index

    def append(self, entry: LogEntry) -> int:
        """Classic-Raft append at ``last_index + 1``; returns the index."""
        index = self.last_index + 1
        self.insert(index, entry)
        return index

    def truncate_from(self, index: int) -> None:
        """Remove every entry at ``index`` and above (classic-Raft conflict
        resolution; Fast Raft never truncates, it overwrites)."""
        if index < 1:
            raise LogError(f"cannot truncate from index {index!r}")
        if index <= self.snapshot_index:
            raise LogError(f"cannot truncate compacted prefix at {index} "
                           f"(snapshot at {self.snapshot_index})")
        self._drop([i for i in self._slots if i >= index])
        self.last_index = max(self._slots, default=self.snapshot_index)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact_to(self, index: int) -> int:
        """Drop every entry at or below ``index`` (the caller guarantees
        they are committed and captured by a snapshot). The compaction
        point's term is taken from the occupant, which therefore must
        exist. Returns the number of entries dropped."""
        if index <= self.snapshot_index:
            return 0
        return self.install_snapshot(index, self.term_at(index))

    def install_snapshot(self, index: int, term: int) -> int:
        """Adopt an external snapshot anchor at ``(index, term)``: drop
        everything at or below ``index`` and keep any suffix above it
        (conflicting suffix entries are resolved by later replication,
        exactly like a retained tail after local compaction). Returns the
        number of entries dropped."""
        if index <= self.snapshot_index:
            return 0
        doomed = [i for i in self._slots if i <= index]
        self._drop(doomed)
        self.snapshot_index = index
        self.snapshot_term = term
        self.last_index = max(self.last_index, index)
        return len(doomed)

    # ------------------------------------------------------------------
    # Range and provenance queries
    # ------------------------------------------------------------------
    def entries_between(self, lo: int, hi: int) -> list[tuple[int, LogEntry]]:
        """Occupied ``(index, entry)`` pairs with ``lo <= index <= hi``
        (compacted indices excluded -- they hold no entries)."""
        lo = max(lo, self.snapshot_index + 1)
        return [(i, self._slots[i]) for i in range(lo, hi + 1)
                if i in self._slots]

    def last_with_provenance(self, inserted_by: InsertedBy) -> int:
        """Highest index whose entry has the given provenance, else 0.

        ``last_with_provenance(InsertedBy.LEADER)`` is the paper's
        ``lastLeaderIndex``.
        """
        for index in sorted(self._slots, reverse=True):
            if self._slots[index].inserted_by is inserted_by:
                return index
        return 0

    def entries_with_provenance(self, inserted_by: InsertedBy
                                ) -> list[tuple[int, LogEntry]]:
        """All ``(index, entry)`` pairs with the given provenance, ordered."""
        return [(i, e) for i, e in self if e.inserted_by is inserted_by]

    def config_at(self, k: int, committed: int, base: ConfigTriple
                  ) -> ConfigTriple:
        """``(version, members, observers)`` of the configuration that
        governs index ``k``: the one rule engines, snapshots and C-Raft
        views share.

        Of the CONFIG entries below ``k``, those at or below
        ``committed`` or leader-approved count (the paper's Section IV-F
        degraded chain relies on the latter governing from insert). A
        tentative one, self-approved above ``committed``, does not: a
        2-voter leader proposing its dead peer's exclusion would decide
        it 1-of-1 under the shrunk config, bypassing the degraded-
        reconfiguration guard. The highest version wins, then the highest
        index (see ``ConfigPayload``). ``base`` is what lies below the
        log (a snapshot's configuration, or the bootstrap one at version
        0; ``(0, None, ())`` for neither): the log wins ties, and
        ``base`` is returned when no entry counts. Only the tracked
        CONFIG indices are scanned."""
        best = None
        for index in sorted(self._config_indices):
            if index >= k:
                break  # iteration is index-ordered
            entry = self._slots[index]
            if (index > committed
                    and entry.inserted_by is not InsertedBy.LEADER):
                continue  # tentative proposal: not yet governing
            # ``>=``: of equal versions the later index wins.
            if best is None or entry.payload.version >= best.version:
                best = entry.payload
        if best is None or best.version < base[0]:
            return base
        return best.version, best.members, best.observers

    def max_config_version(self) -> int:
        """Highest configuration version anywhere in the log (0 if none)."""
        return max((getattr(self._slots[i].payload, "version", 0)
                    for i in self._config_indices),
                   default=0)

    # ------------------------------------------------------------------
    # Duplicate detection
    # ------------------------------------------------------------------
    def indices_of(self, entry_id: str) -> set[int]:
        """All indices currently holding ``entry_id`` (possibly several,
        after client retries landed the same request at multiple slots)."""
        held = self._id_indices.get(entry_id)
        if held is None:
            return set()
        return {held} if held.__class__ is int else set(held)

    def highest_index_of(self, entry_id: str) -> int:
        """Highest index currently holding ``entry_id``, 0 when none
        does (reads the reverse map in place, no set copy: the
        lost-proposal sweep asks this per outstanding proposal per
        commit)."""
        held = self._id_indices.get(entry_id)
        if held is None:
            return 0
        return held if held.__class__ is int else max(held)

    def committed_index_of(self, entry_id: str, commit_index: int
                           ) -> int | None:
        """Lowest committed index holding ``entry_id``, or None."""
        held = self._id_indices.get(entry_id)
        if held is None:
            return None
        if held.__class__ is int:
            return held if held <= commit_index else None
        best = None
        for i in held:  # no list build: runs per proposal delivery
            if i <= commit_index and (best is None or i < best):
                best = i
        return best

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drop(self, doomed: list[int]) -> None:
        """Remove the slots at ``doomed`` (truncation, compaction)."""
        config_indices = self._config_indices
        for i in doomed:
            self._unindex(self._slots[i].entry_id, i)
            config_indices.discard(i)
            del self._slots[i]

    def _unindex(self, entry_id: str, index: int) -> None:
        held = self._id_indices.get(entry_id)
        if held.__class__ is int:
            if held == index:
                del self._id_indices[entry_id]
        elif held is not None:
            held.discard(index)
            if len(held) == 1:
                self._id_indices[entry_id] = held.pop()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<RaftLog last_index={self.last_index} "
                f"occupied={len(self._slots)} "
                f"snapshot={self.snapshot_index}>")
