"""The intra-cluster engine: Fast Raft plus global-commit propagation.

Cluster members learn the global commit index from their local leader's
AppendEntries piggyback (Section V-B: "Local leaders now need to include
their global commitIndex in the AppendEntries message to let followers at
the local level know which global entries are committed").
"""

from __future__ import annotations

from typing import Callable

from repro.consensus.config import Configuration
from repro.consensus.engine import EngineContext
from repro.fastraft.engine import FastRaftEngine


class CRaftLocalEngine(FastRaftEngine):
    """Intra-cluster Fast Raft inside a C-Raft site."""

    protocol_name = "craft.local"

    def __init__(self, ctx: EngineContext, bootstrap_config: Configuration,
                 global_commit_provider: Callable[[], int],
                 global_commit_sink: Callable[[int], None]) -> None:
        super().__init__(ctx, bootstrap_config)
        #: What a local leader piggybacks (read by the base engine) and
        #: where a follower reports what its leader piggybacked.
        self.global_commit_provider = global_commit_provider
        self.global_commit_sink = global_commit_sink

    def _absorb_global_commit(self, global_commit: int) -> None:
        if global_commit > 0:
            self.global_commit_sink(global_commit)
