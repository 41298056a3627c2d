"""Classic Raft: the paper's baseline protocol (Section III-A).

Implements leader election, log replication with the AppendEntries
consistency check and conflict truncation, commit rules (majority
matchIndex in the leader's current term, plus a term-opening no-op so
earlier-term entries commit transitively) and heartbeats, over a static
membership: the bootstrap configuration governs the whole run.

Public surface: :class:`~repro.raft.engine.ClassicRaftEngine` (transport-
agnostic state machine) and :class:`~repro.raft.server.RaftServer` (the
engine bound to a simulated network address).
"""

from repro.raft.engine import ClassicRaftEngine
from repro.raft.server import RaftServer

__all__ = ["ClassicRaftEngine", "RaftServer"]
