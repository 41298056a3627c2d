"""The inter-cluster engine: Fast Raft with gated log inserts.

Every insert into the global log -- from a proposal, from the leader's
decision procedure, or from absorbing a global AppendEntries -- first runs
intra-cluster consensus on a global state entry (Section V-B). The gates
themselves live in :class:`repro.craft.server.CRaftServer`, which owns
the local engine and hands them to the constructor; this class only
redirects the insert funnel through them.

Restamping during election recovery (term/provenance only, data unchanged)
bypasses the gate: the restamped entries are re-replicated to every global
member through gated AppendEntries anyway, and the local log still holds
the data under the old stamp, which is all safety needs.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.consensus.config import Configuration
from repro.consensus.engine import EngineContext
from repro.consensus.entry import LogEntry
from repro.fastraft.engine import FastRaftEngine
from repro.snapshot import Snapshot

#: Signature of the injected gate: (pairs, continuation).
GateFn = Callable[[list[tuple[int, LogEntry]], Callable[[], None]], None]
#: Signature of the injected snapshot gate: (snapshot, continuation).
SnapshotGateFn = Callable[[Snapshot, Callable[[], None]], None]


class CRaftGlobalEngine(FastRaftEngine):
    """Inter-cluster Fast Raft run by cluster leaders."""

    protocol_name = "craft.global"

    #: Inserts defer behind a round of local consensus (Section V-B),
    #: so the fused synchronous proposal path must not be taken.
    _SYNC_GATE = False

    def __init__(self, ctx: EngineContext, bootstrap_config: Configuration,
                 insert_gate: GateFn, snapshot_gate: SnapshotGateFn) -> None:
        super().__init__(ctx, bootstrap_config)
        self.insert_gate = insert_gate
        self.snapshot_gate = snapshot_gate

    def _gate_insert(self, pairs: list[tuple[int, LogEntry]],
                     then: Callable[[], None]) -> None:
        if not pairs:
            super()._gate_insert(pairs, then)
            return
        self.insert_gate(pairs, partial(self._complete_gated_insert, pairs,
                                        then))

    def _complete_gated_insert(self, pairs: list[tuple[int, LogEntry]],
                               then: Callable[[], None]) -> None:
        """Continuation run once the state entry committed locally."""
        self._insert_batch(pairs)
        then()

    def _gate_snapshot_install(self, snapshot: Snapshot,
                               then: Callable[[], None]) -> None:
        """A shipped global snapshot replaces log state, so like every
        other global log write it first runs intra-cluster consensus --
        the whole cluster inherits the image, not just this leader."""
        self.snapshot_gate(
            snapshot, partial(self._complete_gated_snapshot, snapshot, then))

    def _complete_gated_snapshot(self, snapshot: Snapshot,
                                 then: Callable[[], None]) -> None:
        """Continuation once the snapshot-bearing state entry committed
        locally: adopt it into the global log and ack the leader."""
        self._install_snapshot(snapshot)
        then()
