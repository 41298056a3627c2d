"""Membership configurations and bulk-transfer tuning.

A :class:`Configuration` is the set of voting members plus derived quorum
sizes. Per the paper, each site obeys the configuration from the **last
inserted** CONFIG entry in its log (insertion, not commit, is what
activates it), and only one site may join or leave per configuration
change.

Beyond the paper, a configuration may carry **non-voting observers**:
standing replicas that receive AppendEntries (and proposals) like any
member but never count toward commit quorums. Observers exist to fix the
two-member liveness hole: with exactly two voters, losing one makes every
classic quorum (2-of-2) unreachable, so the dead voter's exclusion can
never commit and the configuration wedges. When the voting set is that
small (``<= 2``), an observer is *promoted to a tiebreaker voter* -- but
only for deciding CONFIG entries and for leader elections, never for
ordinary log commits. Every promoted quorum is a strict majority of
``members + observers``, and any two quorums drawn under any mix of the
normal and promoted rules intersect (see the quorum property tests), so
two conflicting configurations can never both commit.

:class:`TransferConfig` tunes how engines ship bulk state (snapshots):
monolithic single-message InstallSnapshot, or Raft's chunked
``offset``/``done`` transfer with a bounded window of chunks in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.consensus.quorum import classic_quorum_size, fast_quorum_size
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TransferConfig:
    """How an engine ships snapshots to lagging followers.

    With ``chunk_size`` unset the whole image travels as one
    ``InstallSnapshotRequest`` -- fine under a size-blind latency model,
    but one giant serialization charge under a
    :class:`~repro.net.latency.BandwidthLatencyModel`, and a transfer
    that restarts from zero on any loss. With ``chunk_size`` set the
    image is split into byte chunks, up to ``chunk_window`` of which are
    in flight (unacked) at once, so chunk serialization overlaps the
    acks crossing the wire and loss costs one chunk, not the image.
    """

    #: Chunk payload bytes; None ships the snapshot as one message.
    chunk_size: int | None = None
    #: Max unacked chunks in flight per follower (pipelining depth).
    chunk_window: int = 4

    def __post_init__(self) -> None:
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1: {self.chunk_size!r}")
        if self.chunk_window < 1:
            raise ConfigurationError(
                f"chunk_window must be >= 1: {self.chunk_window!r}")

    @property
    def chunked(self) -> bool:
        return self.chunk_size is not None


@dataclass(frozen=True)
class Configuration:
    """Immutable voting-member set (plus non-voting observers) with
    quorum sizes. Only ``members`` vote; ``observers`` replicate the log
    and are promoted to tiebreaker voters for CONFIG entries and
    elections while the voting set is degenerate (``size <= 2``).

    ``size``, ``classic_quorum`` and ``fast_quorum`` are plain
    attributes derived once in ``__post_init__`` (every commit decision
    reads them); they are not dataclass fields, so equality, hashing,
    ``repr`` and ``replace`` see ``members`` and ``observers`` only."""

    members: tuple[str, ...] = field(default=())
    observers: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        ordered = tuple(sorted(set(self.members)))
        if not ordered:
            raise ConfigurationError("configuration must have >= 1 member")
        if len(ordered) != len(self.members):
            raise ConfigurationError(
                f"duplicate members in configuration: {self.members!r}")
        object.__setattr__(self, "members", ordered)
        watchers = tuple(sorted(set(self.observers)))
        if len(watchers) != len(self.observers):
            raise ConfigurationError(
                f"duplicate observers in configuration: {self.observers!r}")
        overlap = set(watchers) & set(ordered)
        if overlap:
            raise ConfigurationError(
                f"sites cannot be both member and observer: {sorted(overlap)}")
        object.__setattr__(self, "observers", watchers)
        size = len(ordered)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "classic_quorum", classic_quorum_size(size))
        object.__setattr__(self, "fast_quorum", fast_quorum_size(size))
        object.__setattr__(self, "_member_set", frozenset(ordered))

    # ------------------------------------------------------------------
    # Quorums
    # ------------------------------------------------------------------
    def is_classic_quorum(self, voters: set[str] | int) -> bool:
        count = voters if isinstance(voters, int) else len(
            self._member_set.intersection(voters))
        return count >= self.classic_quorum

    def is_fast_quorum(self, voters: set[str] | int) -> bool:
        count = voters if isinstance(voters, int) else len(
            self._member_set.intersection(voters))
        return count >= self.fast_quorum

    # ------------------------------------------------------------------
    # Tiebreaker promotion (observers, degenerate voting sets)
    # ------------------------------------------------------------------
    @property
    def tiebreaker_active(self) -> bool:
        """An observer acts as tiebreaker voter only while the voting
        set is too small to survive a single failure (``size <= 2``)."""
        return bool(self.observers) and self.size <= 2

    @property
    def tiebreaker(self) -> str | None:
        """The single promoted observer, if the promotion is active.

        Exactly one observer is ever promoted (the first by site id):
        the pairwise-intersection argument below needs the electorate to
        exceed the member set by at most one observer and one joiner, or
        member-free majorities of a large expanded electorate could miss
        a classic quorum entirely.
        """
        return self.observers[0] if self.tiebreaker_active else None

    def is_election_quorum(self, voters: set[str]) -> bool:
        """Vote-count rule for winning an election: the normal classic
        quorum, or -- with the tiebreaker active -- a strict majority of
        ``members + the tiebreaker``. For degenerate voting sets every
        classic quorum is the full member set, so any two quorums drawn
        under any mix of these rules intersect; with one vote per site
        per term that still yields at most one leader per term."""
        if self.is_classic_quorum(voters):
            return True
        if not self.tiebreaker_active:
            return False
        electorate = set(self.members) | {self.tiebreaker}
        count = len(set(voters) & electorate)
        return count >= classic_quorum_size(len(electorate))

    def config_entry_quorum(self, voters: set[str],
                            extra: set[str] | frozenset = frozenset()) -> bool:
        """Vote-count rule for *deciding a CONFIG entry*: the normal
        classic quorum, or a strict majority of the expanded electorate
        -- members, plus the tiebreaker (when active), plus at most one
        ``extra`` eligible joiner (a caught-up joining site replacing
        the member being excluded; one seat, one replacement, matching
        the single-site-change discipline). An expanded quorum must
        contain at least one member -- observers and joiners alone never
        decide a configuration. Ordinary entries never use this."""
        voter_set = set(voters)
        if self.is_classic_quorum(voter_set):
            return True
        if not voter_set & set(self.members):
            return False
        electorate = set(self.members)
        if self.tiebreaker_active:
            electorate.add(self.tiebreaker)
        joiner = sorted(set(extra) - electorate)[:1]
        electorate.update(joiner)
        if electorate == set(self.members):
            return False  # nothing to promote; the normal rule stands
        count = len(voter_set & electorate)
        return count >= classic_quorum_size(len(electorate))

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self.members

    def others(self, name: str) -> tuple[str, ...]:
        """All members except ``name``."""
        return tuple(m for m in self.members if m != name)

    @property
    def replicas(self) -> tuple[str, ...]:
        """Every site replicating this configuration's log: voting
        members plus non-voting observers. The single answer to "who
        gets AppendEntries / proposals / vote requests" -- engines must
        not re-derive the union themselves.

        Computed once per (immutable) configuration: proposal broadcasts
        and heartbeat fan-outs read this on every round."""
        cached = self.__dict__.get("_replicas")
        if cached is None:
            cached = tuple(sorted(set(self.members) | set(self.observers)))
            object.__setattr__(self, "_replicas", cached)
        return cached

    def replicas_without(self, name: str) -> tuple[str, ...]:
        """All replicas except ``name``."""
        return tuple(r for r in self.replicas if r != name)

    def __repr__(self) -> str:
        if self.observers:
            return (f"Configuration({list(self.members)!r}, "
                    f"observers={list(self.observers)!r})")
        return f"Configuration({list(self.members)!r})"
