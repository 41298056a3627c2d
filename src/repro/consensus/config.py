"""Membership configurations and bulk-transfer tuning.

A :class:`Configuration` is the set of voting members plus derived quorum
sizes. ``RaftLog.config_at(k, ...)`` names the one governing index k:
of the CONFIG entries below k, the highest version, then the highest
index. A leader-approved entry governs from the moment it is inserted,
before it commits; a self-approved entry above the commit index is a
tentative proposal and governs only once it is decided or committed.
Only one site may join or leave per configuration change.

A configuration may also carry **non-voting observers**: standing
replicas that receive AppendEntries (and proposals) like any member but
never count toward commit quorums. When and how one is promoted to a
tiebreaker voter is a quorum rule, stated and implemented in
:mod:`repro.consensus.quorum` with every other vote count.

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
    (:func:`repro.consensus.quorum.tiebreaker` says when one votes).

    ``size``, ``classic_quorum``, ``fast_quorum`` and ``_member_set`` are
    plain attributes derived once in ``__post_init__`` (every vote count
    in :mod:`repro.consensus.quorum` reads them); they are not dataclass
    fields, so equality, hashing, ``repr`` and ``replace`` see
    ``members`` and ``observers`` only."""

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
