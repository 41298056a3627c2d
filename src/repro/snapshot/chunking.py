"""Chunked snapshot wire transfer (Raft's ``offset``/``done`` RPC shape).

PR 1 shipped a whole :class:`~repro.snapshot.types.Snapshot` in one
``InstallSnapshotRequest``; with a size-aware latency model that one
message serializes the entire image onto the link in a single charge, and
a mid-transfer leader change loses everything. Raft's reference
InstallSnapshot RPC instead ships the image as a sequence of byte chunks
(``offset``, ``data``, ``done``), which is what this module implements:

- :func:`serialize_snapshot` / :func:`deserialize_snapshot` turn a
  snapshot into the byte string actually traversing the simulated wire
  (so chunked and monolithic transfers are charged identical totals);
- :func:`chunk_offsets` splits the byte range into ``chunk_size`` slices;
- :class:`SnapshotSender` is the leader's per-follower transfer state:
  a window of unacked chunks in flight, resend on stall, full restart
  when every chunk was acked but no install confirmation arrived (the
  follower crashed mid-transfer and lost its buffer);
- :class:`ChunkAssembler` is the follower's reassembly buffer: chunks
  arrive unordered over the UDP-like fabric, duplicates are dropped, and
  the snapshot only exists once the byte range is fully covered --
  a partial transfer is useless and is discarded wholesale on a term
  change or when a newer snapshot's chunks start arriving.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.errors import ConsensusError
from repro.snapshot.types import Snapshot


def serialize_snapshot(snapshot: Snapshot) -> bytes:
    """The snapshot's wire form (deterministic for identical content)."""
    return pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)


def deserialize_snapshot(data: bytes) -> Snapshot:
    snapshot = pickle.loads(data)
    if not isinstance(snapshot, Snapshot):
        raise ConsensusError(
            f"reassembled transfer is not a snapshot: {type(snapshot)!r}")
    return snapshot


def snapshot_wire_size(snapshot: Snapshot) -> int:
    """Bytes a transfer of ``snapshot`` puts on the wire (either mode)."""
    return len(serialize_snapshot(snapshot))


def chunk_offsets(total_size: int, chunk_size: int) -> list[tuple[int, int]]:
    """``(offset, length)`` slices covering ``[0, total_size)`` in order.

    A zero-byte payload still yields one empty chunk so the ``done``
    marker has a message to ride on.
    """
    if chunk_size < 1:
        raise ConsensusError(f"chunk_size must be >= 1: {chunk_size!r}")
    if total_size <= 0:
        return [(0, 0)]
    return [(offset, min(chunk_size, total_size - offset))
            for offset in range(0, total_size, chunk_size)]


class ChunkAssembler:
    """Follower-side reassembly of one chunked snapshot transfer."""

    def __init__(self, last_included_index: int, last_included_term: int,
                 leader_term: int, total_size: int) -> None:
        self.last_included_index = last_included_index
        self.last_included_term = last_included_term
        #: Term of the shipping leader; a higher observed term voids the
        #: partial transfer (the new leader restarts from scratch).
        self.leader_term = leader_term
        self.total_size = total_size
        self._pieces: dict[int, bytes] = {}
        self.received_bytes = 0

    def add(self, offset: int, data: bytes) -> bool:
        """Buffer one chunk; returns False for a duplicate offset."""
        if offset in self._pieces:
            return False
        self._pieces[offset] = bytes(data)
        self.received_bytes += len(data)
        return True

    @property
    def chunks_received(self) -> int:
        return len(self._pieces)

    @property
    def complete(self) -> bool:
        """True once the buffered slices cover ``[0, total_size)``."""
        if self.received_bytes < self.total_size:
            return False
        end = 0
        for offset in sorted(self._pieces):
            if offset > end:
                return False  # a hole despite the byte tally (bad chunks)
            end = max(end, offset + len(self._pieces[offset]))
        return end >= self.total_size

    def assemble(self) -> bytes:
        """Concatenate the covered range (requires :attr:`complete`)."""
        if not self.complete:
            raise ConsensusError(
                f"incomplete transfer: {self.received_bytes}"
                f"/{self.total_size} bytes")
        out = bytearray()
        for offset in sorted(self._pieces):
            piece = self._pieces[offset]
            if offset < len(out):
                piece = piece[len(out) - offset:]  # overlap from resends
            out.extend(piece)
        return bytes(out[:self.total_size])


class SnapshotSender:
    """Leader-side state for one chunked transfer to one follower."""

    def __init__(self, snapshot: Snapshot, data: bytes, chunk_size: int,
                 now: float) -> None:
        self.snapshot = snapshot
        self.data = data
        self.chunks = chunk_offsets(len(data), chunk_size)
        self._pending: list[tuple[int, int]] = list(self.chunks)
        self._in_flight: set[int] = set()
        self.acked: set[int] = set()
        self.last_activity = now
        #: Time an ack last arrived (creation counts as progress so a
        #: fresh transfer gets its grace period before any nudge).
        self.last_ack = now
        self.restarts = 0

    @property
    def snapshot_index(self) -> int:
        return self.snapshot.last_included_index

    @property
    def total_size(self) -> int:
        return len(self.data)

    @property
    def done(self) -> bool:
        """Every chunk acked (the install confirmation may still be due)."""
        return len(self.acked) == len(self.chunks)

    def take(self, window: int) -> list[tuple[int, int, bytes, bool]]:
        """Chunks to put on the wire now, keeping at most ``window`` in
        flight: ``(offset, length, data slice, done flag)`` tuples."""
        out: list[tuple[int, int, bytes, bool]] = []
        last_offset = self.chunks[-1][0]
        while self._pending and len(self._in_flight) < window:
            offset, length = self._pending.pop(0)
            self._in_flight.add(offset)
            out.append((offset, length, self.data[offset:offset + length],
                        offset == last_offset))
        return out

    def ack(self, offset: int) -> bool:
        """Record a chunk ack; returns True if it was news."""
        if offset in self.acked:
            return False
        self.acked.add(offset)
        self._in_flight.discard(offset)
        return True

    def requeue_unacked(self) -> None:
        """Stall recovery: put every unacked chunk back on the send queue
        (lost chunks or lost acks; duplicates are dropped by the
        assembler / the ack handler)."""
        self._in_flight.clear()
        self._pending = [c for c in self.chunks if c[0] not in self.acked]

    def restart(self) -> None:
        """Fully-acked but never installed (the follower lost its buffer,
        e.g. a crash mid-transfer): resend from scratch."""
        self.acked.clear()
        self._in_flight.clear()
        self._pending = list(self.chunks)
        self.restarts += 1
