"""Log entries.

A :class:`LogEntry` carries, per the paper's "Contents of a log entry":

- ``data`` -- here split into ``kind`` + ``payload`` so configuration
  entries, C-Raft global-state entries, batches, and no-ops are explicit,
- ``term`` -- the term in which the holding site inserted it,
- ``inserted_by`` -- ``SELF`` or ``LEADER`` (new in Fast Raft).

Entries also carry an ``entry_id`` (``"<origin>:<request id>"``) and the
``origin`` site. The id gives "the same entry" a precise meaning for vote
counting and duplicate suppression; the origin tells any leader (including
one elected after a failure) whom to notify on commit.

Entries are immutable; state changes (leader approval, restamping) create
a new object via :func:`dataclasses.replace`-style helpers, which keeps
log snapshots safe to share across the simulation.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.net.sizes import estimate_size, frozen_dataclass, size_memo


class EntryKind(enum.Enum):
    """What a log entry's payload means."""

    DATA = "data"                  # application command
    NOOP = "noop"                  # leader filler / term establishment
    CONFIG = "config"              # membership configuration change
    GLOBAL_STATE = "global_state"  # C-Raft local-log replication of global state
    BATCH = "batch"                # C-Raft global-log batch of local entries


class InsertedBy(enum.Enum):
    """Fast Raft's provenance mark (``insertedBy`` in the paper)."""

    SELF = "self"      # inserted on receipt of a proposal (self-approved)
    LEADER = "leader"  # inserted or confirmed by the term's leader


def make_entry_id(origin: str, request_id: int | str) -> str:
    """Canonical entry id: unique as long as origins number their requests."""
    return f"{origin}:{request_id}"


_NOOP_COUNTER = 0


@frozen_dataclass
class LogEntry:
    """One slot of the replicated log."""

    entry_id: str
    kind: EntryKind
    payload: Any
    origin: str
    term: int
    inserted_by: InsertedBy
    _est_size: int | None = size_memo()
    _stamp_memo: Any = size_memo()

    def with_mark(self, term: int, inserted_by: InsertedBy) -> "LogEntry":
        """Copy with new term stamp and provenance (leader approval).

        Direct construction rather than :func:`dataclasses.replace`:
        restamping happens for every entry a leader touches, and
        ``replace`` pays field introspection per call for the same
        result. The structural-size memo is inherited: restamping only
        changes fixed-cost fields (an int and an enum), so the copy's
        size is the original's -- without this, every leader approval
        re-walked the payload (the hottest avoidable cost on the C-Raft
        mesh cell). An unmeasured original is measured *before* copying:
        every caller inserts the stamp (which needs the size for durable
        write accounting), and measuring ``self`` memoizes the shared
        broadcast object in place, so N sites stamping one proposal pay
        one walk instead of N.

        The stamp itself is memoized too: a broadcast proposal reaches
        every configuration member as *one* shared message object, and
        each member stamps it with the same ``(term, inserted_by)`` --
        entries are immutable, so they can all hold the identical copy."""
        memo = self._stamp_memo
        if (memo is not None and memo[0] == term
                and memo[1] is inserted_by):
            return memo[2]
        stamped = LogEntry(entry_id=self.entry_id, kind=self.kind,
                           payload=self.payload, origin=self.origin,
                           term=term, inserted_by=inserted_by)
        size = self._est_size
        if size is None:
            size = estimate_size(self)
        object.__setattr__(stamped, "_est_size", size)
        object.__setattr__(self, "_stamp_memo", (term, inserted_by, stamped))
        return stamped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"LogEntry({self.entry_id!r}, {self.kind.value}, "
                f"t={self.term}, {self.inserted_by.value})")


def make_noop(origin: str, term: int,
              inserted_by: InsertedBy = InsertedBy.LEADER) -> LogEntry:
    """A fresh no-op entry (unique id each call)."""
    global _NOOP_COUNTER
    _NOOP_COUNTER += 1
    return LogEntry(entry_id=make_entry_id(origin, f"noop{_NOOP_COUNTER}"),
                    kind=EntryKind.NOOP, payload=None, origin=origin,
                    term=term, inserted_by=inserted_by)


@frozen_dataclass
class ConfigPayload:
    """Payload of a CONFIG entry: the full voting-member list, plus any
    standing non-voting observers (see ``Configuration.observers``).

    ``version`` increases with every configuration entry a leader
    creates, and ``RaftLog.config_at`` picks the highest version present
    in the log rather than the paper's "last appended". The rules agree
    while changes serialize strictly (the paper's assumption). They
    differ when the degraded reconfiguration path (Section IV-F liveness)
    runs ahead of a stalled earlier change that is decided afterwards:
    the stalled, lower-version entry lands leader-approved at a higher
    index than the newer one, which still governs (an ``@example`` of
    ``TestIndexedLookupsMatchFullScans`` in ``tests/test_consensus_log.py``).
    """

    members: tuple[str, ...]
    version: int = 0
    observers: tuple[str, ...] = ()
    _est_size: int | None = size_memo()

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(sorted(self.members)))
        object.__setattr__(self, "observers", tuple(sorted(self.observers)))


@frozen_dataclass
class GlobalStatePayload:
    """Payload of a C-Raft GLOBAL_STATE entry in a *local* log.

    Replicates the cluster leader's global-log inserts so a future local
    leader inherits the cluster's inter-cluster consensus state. One
    payload may carry several ``(global index, global entry)`` pairs: a
    global AppendEntries batch is persisted through one local consensus
    round rather than one per entry (pure batching; the paper gates each
    insert individually, with identical semantics).

    ``global_commit`` is the gating leader's global commit index at
    creation time. Cluster members advance their *effective* global commit
    only from applied state entries, never from the AppendEntries
    piggyback alone: state entries are totally ordered by the local log,
    so by the time a member sees ``global_commit >= g`` every corrective
    insert the leader performed below ``g`` is already in the member's
    view -- the finality invariant that makes applying safe. A payload
    with no inserts is a pure commit marker.

    ``snapshot`` (a :class:`repro.snapshot.Snapshot` over the *global*
    log, or None) replicates a globally committed snapshot image through
    local consensus: when the cluster leader receives a global
    InstallSnapshot, every cluster member must inherit the image the same
    way it inherits gated inserts, or a future local leader's view would
    be missing the compacted global prefix.
    """

    inserts: tuple[tuple[int, "LogEntry"], ...]
    global_commit: int = 0
    snapshot: Any = None
    _est_size: int | None = size_memo()


@frozen_dataclass
class BatchPayload:
    """Payload of a C-Raft BATCH entry in the *global* log.

    ``entries`` are the locally committed DATA entries being published
    cluster-to-cluster; ``local_range`` records the local-log span for
    bookkeeping and tests.
    """

    cluster: str
    sequence: int
    entries: tuple[LogEntry, ...]
    local_range: tuple[int, int]
    _est_size: int | None = size_memo()

    def __len__(self) -> int:
        return len(self.entries)
