"""The intra-cluster engine: Fast Raft plus global-commit propagation.

Cluster members learn the global commit index from their local leader's
AppendEntries piggyback (Section V-B: "Local leaders now need to include
their global commitIndex in the AppendEntries message to let followers at
the local level know which global entries are committed").
"""

from __future__ import annotations

from typing import Callable

from repro.fastraft.engine import FastRaftEngine


class CRaftLocalEngine(FastRaftEngine):
    """Intra-cluster Fast Raft inside a C-Raft site."""

    protocol_name = "craft.local"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Wired by CRaftServer after construction, beside the base
        # engine's global_commit_provider (what a local leader sends).
        self.global_commit_sink: Callable[[int], None] = lambda value: None

    def _absorb_global_commit(self, global_commit: int) -> None:
        if global_commit > 0:
            self.global_commit_sink(global_commit)
