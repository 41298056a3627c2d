"""ServingFrontend: the client edge every server kind shares.

One front-end answers a site's co-located clients whatever consensus
runs behind it (:class:`~repro.consensus.server.ConsensusServer`,
:class:`~repro.craft.server.CRaftServer`). It owns the exactly-once
contract and nothing else: the request id -> client map and one reply
per id, the applied-id set that stops a request committed twice from
applying twice (at a C-Raft site, the global level's), and session
dedup from a :class:`~repro.smr.sessions.SessionTable`. The policy:

- *A duplicate* is a session request at or below its session's highest
  applied sequence; it is answered here, without entering consensus.
- *Its reply* carries the commit index only when the retry is the
  session's newest applied request and the slot is known, else
  ``index=None``. The table records "slot unknown" as 0 (a table
  rebuilt from a snapshot, an entry seen through a global batch); 0
  never reaches a client.
- *A snapshot restore* replaces the applied-id set and max-merges its
  ids into the table: a snapshot covers what the replica applied, so
  every duplicate is decided as a rebuild would, and known indices stay.

Session tracking is off until a session client attaches anywhere
(:meth:`track_sessions`). It is a deployment property: :meth:`reset`
(crash recovery) keeps it and the duplicate counter, while the table
comes back through the snapshot restore and the commit replay.
"""

from __future__ import annotations

from repro.consensus.messages import ClientReply, ClientRequest
from repro.net.network import Network
from repro.sim.loop import SimLoop
from repro.sim.trace import TraceRecorder
from repro.smr.sessions import SessionTable


class ServingFrontend:
    """One site's client edge: request routing, exactly-once apply,
    session dedup and the replies."""

    def __init__(self, name: str, loop: SimLoop, network: Network,
                 trace: TraceRecorder) -> None:
        self.name = name
        self.now = loop.now
        self._network = network
        self._trace = trace
        self._tracing = trace.enabled
        #: Sticky: set once a session client attaches anywhere.
        self.tracking = False
        #: Retried requests answered from the session table (metrics).
        self.session_duplicates = 0
        self.reset()

    def reset(self) -> None:
        """Drop the volatile state (crash recovery). The tracking flag
        and the duplicate counter survive."""
        #: request id -> the client address to answer.
        self._clients: dict[str, str] = {}
        self._replied: set[str] = set()
        #: Ids of the DATA entries applied so far (snapshot images carry
        #: them as ``applied_ids``).
        self.applied_ids: set[str] = set()
        self.sessions = SessionTable()

    def track_sessions(self) -> None:
        """Turn on per-session dedup (idempotent)."""
        self.tracking = True

    # ------------------------------------------------------------------
    # Requests in
    # ------------------------------------------------------------------
    def admit(self, request: ClientRequest, sender: str) -> bool:
        """Accept a client request for consensus; False when it was a
        duplicate and has been answered already."""
        if (self.tracking and request.sequence
                and self.sessions.is_duplicate(request.session_id,
                                               request.sequence)):
            sequence, index = self.sessions.last_applied(request.session_id)
            self.session_duplicates += 1
            if self._tracing:
                self._trace.record(self.now(), self.name,
                                   "session.duplicate",
                                   request_id=request.request_id)
            self._network.send_local(self.name, sender, ClientReply(
                request_id=request.request_id, ok=True,
                index=index if (sequence == request.sequence and index)
                else None,
                info="duplicate"))
            return False
        self._clients[request.request_id] = sender
        return True

    # ------------------------------------------------------------------
    # Applies
    # ------------------------------------------------------------------
    def apply_once(self, entry_id: str, index: int) -> bool:
        """Record one committed DATA entry; False when its id was applied
        before (a retried request committed twice), so the caller must
        not apply it again. ``index`` 0: the slot is unknown here."""
        applied = self.applied_ids
        if entry_id in applied:
            return False
        applied.add(entry_id)
        if self.tracking:
            self.sessions.observe(entry_id, index)
        return True

    def observe(self, entry_id: str, index: int) -> None:
        """Record a session entry applied outside the applied-id set (a
        C-Raft site's local DATA apply, before any global batch)."""
        if self.tracking:
            self.sessions.observe(entry_id, index)

    def restore(self, applied_ids: tuple[str, ...]) -> None:
        """Adopt a snapshot's applied ids: replace the id set, max-merge
        the session table."""
        self.applied_ids = set(applied_ids)
        if self.tracking:
            observe = self.sessions.observe
            for entry_id in applied_ids:
                observe(entry_id, 0)

    # ------------------------------------------------------------------
    # Replies out
    # ------------------------------------------------------------------
    def reply_committed(self, request_id: str, index: int) -> bool:
        """Answer the client that asked for ``request_id``, once; False
        when nobody here is waiting for it."""
        client = self._clients.get(request_id)
        if client is None or request_id in self._replied:
            return False
        self._replied.add(request_id)
        self._network.send_local(self.name, client, ClientReply(
            request_id=request_id, ok=True, index=index))
        return True
