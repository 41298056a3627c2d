"""The intra-cluster engine: Fast Raft on a C-Raft cluster's local log.

It adds no protocol of its own. Cluster members learn global commits
from applied GLOBAL_STATE entries of this log (see
:meth:`repro.craft.server.CRaftServer._on_local_apply`), not from an
AppendEntries field. Its own ``protocol_name`` tags its trace events
(``craft.local.commit`` and the rest) apart from the global level's.
"""

from __future__ import annotations

from repro.fastraft.engine import FastRaftEngine


class CRaftLocalEngine(FastRaftEngine):
    """Intra-cluster Fast Raft inside a C-Raft site."""

    protocol_name = "craft.local"
