"""RPC message types for all three protocols.

All messages are immutable dataclasses. ``AppendEntries.entries`` carries
explicit ``(index, entry)`` pairs because Fast Raft replicates ranges that
do not necessarily start at the follower's end of log.

The C-Raft :class:`Envelope` wraps any of these with a level tag so one
site can run intra-cluster and inter-cluster consensus side by side over
one network address.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.entry import LogEntry
from repro.net.sizes import (FRAME_SIZE, HEADER_SIZE, SCALAR_SIZE,
                             estimate_size, frozen_dataclass, size_memo)
from repro.net.sizes import payload_size as _payload_size

IndexedEntries = tuple[tuple[int, LogEntry], ...]


def _entries_size(entries: IndexedEntries) -> int:
    """``estimate_size(entries)`` without the walk: one frame for the
    tuple, one frame and an index per pair, and each entry's memo."""
    total = FRAME_SIZE + len(entries) * (FRAME_SIZE + SCALAR_SIZE)
    for _, entry in entries:
        size = entry._est_size
        total += size if size is not None else estimate_size(entry)
    return total


# ----------------------------------------------------------------------
# Client <-> site (co-located, reliable)
# ----------------------------------------------------------------------
@frozen_dataclass
class ClientRequest:
    """A client asks its attached site to get ``command`` committed.

    Session clients additionally carry a session id and a per-session
    sequence number; servers use the pair for exactly-once duplicate
    suppression over the at-least-once retry loop. The defaults keep
    plain (sessionless) clients wire-identical.
    """

    request_id: str
    command: Any
    session_id: str = ""
    sequence: int = 0


@frozen_dataclass
class ClientReply:
    """Outcome of a client request (sent on commit, or on redirect info)."""

    request_id: str
    ok: bool
    index: int | None = None
    info: str = ""


@frozen_dataclass
class ReadRequest:
    """A client asks its attached site for a linearizable local read.

    Served without touching the consensus path: a leader holding a
    quorum-renewed lease answers immediately; a follower answers after
    the next lease-carrying heartbeat proves the state it reads is at
    least as fresh as every write acknowledged before the read arrived.
    """

    request_id: str
    key: str


@frozen_dataclass
class ReadReply:
    """Outcome of a lease read (``ok=False``: no active lease -- the
    client retries, as with write timeouts)."""

    request_id: str
    ok: bool
    value: Any = None
    index: int | None = None
    info: str = ""


# ----------------------------------------------------------------------
# Proposals and votes
# ----------------------------------------------------------------------
@frozen_dataclass
class ProposeToLeader:
    """Classic Raft: a site forwards a proposal to the term's leader."""

    entry: LogEntry
    _est_size: int | None = size_memo()


@frozen_dataclass
class ProposeEntry:
    """Fast Raft: the proposing site broadcasts the entry for index
    ``index`` to every member (Fig. 2's first hop)."""

    index: int
    entry: LogEntry
    _est_size: int | None = size_memo()


@frozen_dataclass
class VoteEntry:
    """Fast Raft: a site reports its slot content for ``index`` to the
    leader (its vote; see ``ProposalMixin._send_slot_vote``)."""

    term: int
    index: int
    entry: LogEntry
    commit_index: int
    voter: str
    _est_size: int | None = size_memo()


@frozen_dataclass
class CommitNotice:
    """Leader tells the origin site that its entry committed."""

    entry_id: str
    index: int
    term: int


# ----------------------------------------------------------------------
# Replication
# ----------------------------------------------------------------------
@frozen_dataclass
class AppendEntries:
    """Leader -> follower replication / heartbeat."""

    term: int
    leader_id: str
    prev_log_index: int
    prev_log_term: int
    entries: IndexedEntries
    leader_commit: int
    #: Leader-lease piggyback (zero unless leases are enabled): the
    #: leader's clock when this beat was built, and how long its lease
    #: runs. Excluded from the sizing formula below -- the scalars only
    #: travel meaningfully when the lease feature is switched on.
    sent_at: float = 0.0
    lease_until: float = 0.0
    _wire_size: int | None = size_memo()

    def payload_size(self) -> int:
        """Wire size: fixed header fields plus the carried entries (the
        size-aware cost model charges replication batches by content).
        Memoized: a broadcast round reuses one message object across
        followers with equal nextIndex, so the entry walk happens once
        per round instead of once per destination.

        Four scalar fields are charged five slots: the fifth, a retired
        C-Raft global commit index, holds every bandwidth-charged delay
        (and so every pinned signature) until the next re-pin."""
        cached = self._wire_size
        if cached is None:
            cached = (HEADER_SIZE + 5 * SCALAR_SIZE + len(self.leader_id)
                      + _entries_size(self.entries))
            object.__setattr__(self, "_wire_size", cached)
        return cached


@frozen_dataclass
class AppendEntriesResponse:
    term: int
    success: bool
    follower: str
    #: Highest index known replicated on the follower when ``success``.
    match_index: int
    #: Follower's last log index -- lets the leader cap nextIndex backoff.
    last_log_index: int
    #: Echo of the acked beat's ``AppendEntries.sent_at`` (zero unless
    #: leases are enabled) -- the leader renews its lease from the send
    #: time a quorum provably acked, never from response arrival times.
    beat_sent_at: float = 0.0


@frozen_dataclass
class InstallSnapshotRequest:
    """Leader -> follower: the follower's needed log prefix has been
    compacted away, so the leader ships its snapshot instead of entries.
    ``snapshot`` is a :class:`repro.snapshot.Snapshot` (typed ``Any`` to
    keep the message layer free of the storage layer).

    This is the *monolithic* transfer (``TransferConfig.chunk_size``
    unset); with chunking enabled the image travels as a sequence of
    :class:`InstallSnapshotChunk` messages instead."""

    term: int
    leader_id: str
    snapshot: Any
    _wire_size: int | None = size_memo()

    def payload_size(self) -> int:
        """The whole serialized image in one charge -- the same image
        bytes the chunked transfer ships in slices (which also pays
        per-chunk headers and acks, so chunking's measured advantage
        under a bandwidth-limited latency model is conservative).

        Serializing the image is O(image) real work and the network asks
        for the size on every send (including periodic re-ships), so the
        result is memoized on this frozen message."""
        cached = self._wire_size
        if cached is None:
            from repro.snapshot.chunking import snapshot_wire_size
            cached = (HEADER_SIZE + SCALAR_SIZE + len(self.leader_id)
                      + snapshot_wire_size(self.snapshot))
            object.__setattr__(self, "_wire_size", cached)
        return cached


@frozen_dataclass
class InstallSnapshotResponse:
    term: int
    follower: str
    #: The shipped snapshot's last included index (ack correlation).
    last_included_index: int
    success: bool


@frozen_dataclass
class InstallSnapshotChunk:
    """One slice of a chunked snapshot transfer (Raft's reference RPC:
    ``offset`` positions the slice, ``done`` marks the final one).

    ``last_included_index``/``last_included_term`` identify the snapshot
    so the follower can tell a stale transfer's stragglers from the
    current one; ``total_size`` lets it judge completeness without
    trusting chunk arrival order (the fabric reorders freely)."""

    term: int
    leader_id: str
    last_included_index: int
    last_included_term: int
    offset: int
    data: bytes
    total_size: int
    done: bool

    def payload_size(self) -> int:
        return (HEADER_SIZE + 5 * SCALAR_SIZE + len(self.leader_id)
                + len(self.data))


@frozen_dataclass
class InstallSnapshotChunkAck:
    """Follower -> leader: one chunk arrived (or was rejected as stale).
    The leader's send window advances on each ack; the final full-image
    acknowledgement is still :class:`InstallSnapshotResponse`, sent once
    the reassembled snapshot is installed."""

    term: int
    follower: str
    last_included_index: int
    offset: int
    success: bool = True


# ----------------------------------------------------------------------
# Elections
# ----------------------------------------------------------------------
@frozen_dataclass
class RequestVote:
    """Candidate -> all sites.

    For classic Raft ``last_log_index``/``last_log_term`` describe the
    candidate's last entry; for Fast Raft they describe the last
    *leader-approved* entry (self-approved entries are excluded from the
    up-to-date comparison, Section IV-C).
    """

    term: int
    candidate_id: str
    last_log_index: int
    last_log_term: int


@frozen_dataclass
class RequestVoteResponse:
    term: int
    vote_granted: bool
    voter: str
    #: Fast Raft recovery: granting voters attach every self-approved
    #: entry in their log.
    self_approved: IndexedEntries = ()
    _est_size: int | None = size_memo()


# ----------------------------------------------------------------------
# Membership
# ----------------------------------------------------------------------
@frozen_dataclass
class JoinRequest:
    """A site asks to join the configuration (sent to any member;
    non-leaders forward it to the leader).

    ``replaces`` is a liveness hint from C-Raft's leader handoff: the
    previous cluster leader whose seat this joiner takes over. While the
    exclusion of ``replaces`` is pending and this joiner is fully caught
    up, the joiner's votes count toward the exclusion quorum -- that is
    what un-wedges a two-voter configuration whose other voter died."""

    site: str
    replaces: str | None = None


@frozen_dataclass
class JoinAccepted:
    """Leader -> joining site once the new configuration committed."""

    members: tuple[str, ...]
    leader_id: str


@frozen_dataclass
class LeaveRequest:
    """A site announces its departure (or the leader self-generates this
    after a member timeout for silent leaves).

    With ``as_observer`` the site does not leave outright: it asks to be
    *demoted* from voting member to standing non-voting observer (the
    bootstrap seed's retirement), keeping a replica alive as the
    tiebreaker for degenerate voting sets."""

    site: str
    as_observer: bool = False


@frozen_dataclass
class LeaveAccepted:
    """Leader -> departing site once the exclusion committed."""

    site: str


@frozen_dataclass
class NotInConfiguration:
    """Administrative notice to a site whose consensus message was ignored
    because it is not a configuration member; carries enough information
    for the site to rejoin. (The paper drops such messages silently and
    notes the site "will need to send a join request"; this notice is how
    the site learns that, without changing any consensus decision.)"""

    term: int
    members: tuple[str, ...]
    leader_hint: str | None


@frozen_dataclass
class RecoveryProbe:
    """Probe-before-trust recovery: a recovering site asks a peer whether
    its restored configuration still governs, instead of trusting a
    configuration that may be older than the member timeout. A site
    evicted while down restores a configuration that still lists it, so
    without this probe it idles as a silent follower until an election
    timeout trips the :class:`NotInConfiguration` path.

    ``config_version`` is the governing version the prober restored."""

    site: str
    config_version: int
    term: int


@frozen_dataclass
class RecoveryProbeReply:
    """A peer's answer to a :class:`RecoveryProbe`: its own governing
    config epoch, the membership verdict for the prober, and a leader
    hint. A strictly newer configuration that excludes the prober routes
    it straight onto the ``NotInConfiguration`` -> ``JoinRequest`` rejoin
    path; a confirming reply lets it resume as a follower immediately."""

    term: int
    config_version: int
    members: tuple[str, ...]
    leader_hint: str | None
    is_member: bool
    _wire_size: int | None = size_memo()

    def payload_size(self) -> int:
        """Fixed header plus the carried member list: like the other
        membership carriers, replies are charged by content (the probe
        fan-out is one reply per probed member)."""
        cached = self._wire_size
        if cached is None:
            cached = (HEADER_SIZE + 3 * SCALAR_SIZE
                      + sum(len(m) for m in self.members)
                      + (len(self.leader_hint) if self.leader_hint else 0))
            object.__setattr__(self, "_wire_size", cached)
        return cached


# ----------------------------------------------------------------------
# C-Raft envelope
# ----------------------------------------------------------------------
@frozen_dataclass
class Envelope:
    """Level-tagged wrapper for C-Raft message routing.

    ``level`` is ``"local"`` or ``"global"``; ``scope`` is the cluster
    name for local messages (so a site in several clusters could route by
    cluster) and ``"global"`` otherwise.
    """

    level: str
    scope: str
    inner: Any

    def payload_size(self) -> int:
        """Routing tag plus the wrapped message's own wire size (so a
        global snapshot chunk costs the same enveloped or bare). Not
        memoized: C-Raft builds one envelope per destination and the
        network sizes each message once, so a memo would never be read;
        the inner message keeps its own."""
        return (len(self.level) + len(self.scope) + SCALAR_SIZE
                + _payload_size(self.inner))


#: Message types a non-member may send without being ignored.
MEMBERSHIP_OPEN_TYPES = (JoinRequest, LeaveRequest, RecoveryProbe)
