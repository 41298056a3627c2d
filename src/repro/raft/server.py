"""Classic Raft bound to a network address."""

from __future__ import annotations

from repro.consensus.server import ConsensusServer
from repro.raft.engine import ClassicRaftEngine


class RaftServer(ConsensusServer):
    """A classic-Raft site (the paper's baseline)."""

    engine_cls = ClassicRaftEngine
