"""Client sessions with the paper's proposal-timeout retry loop.

A client is co-located with its attached site (the paper picks "a site at
random to be the proposer"); client <-> site traffic uses the reliable
local path while everything between sites goes over the lossy network.

Latency is measured exactly as in Section VI: "the proposer started a
timer when first proposing an entry and stopped the timer when the leader
notified it that the entry was committed" -- i.e. from *first* submission,
across retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.consensus.messages import (ClientReply, ClientRequest, ReadReply,
                                      ReadRequest)
from repro.net.network import Network
from repro.sim.actor import Actor
from repro.sim.loop import SimLoop


@dataclass
class RequestRecord:
    """Lifecycle of one client request."""

    request_id: str
    command: Any
    submitted_at: float
    committed_at: float | None = None
    commit_index: int | None = None
    attempts: int = 1
    #: "write" (consensus commit) or "read" (lease-served local read).
    kind: str = "write"
    #: Per-session sequence number (0 for sessionless clients and reads).
    sequence: int = 0
    #: Read result value (reads only).
    result: Any = None
    callbacks: list[Callable[["RequestRecord"], None]] = field(
        default_factory=list)

    @property
    def latency(self) -> float | None:
        if self.committed_at is None:
            return None
        return self.committed_at - self.submitted_at

    @property
    def done(self) -> bool:
        return self.committed_at is not None


class Client(Actor):
    """A proposer attached to one site."""

    def __init__(self, name: str, loop: SimLoop, network: Network,
                 site: str, proposal_timeout: float = 1.0,
                 max_attempts: int | None = None,
                 session: bool = False) -> None:
        super().__init__(loop, name)
        self._network = network
        #: The site this client is attached to (written by
        #: :meth:`attach_to` only).
        self.site = site
        self._proposal_timeout = proposal_timeout
        self._max_attempts = max_attempts
        #: Session clients stamp requests with (session_id, sequence) so
        #: servers can suppress duplicates from the retry loop without
        #: re-entering consensus.
        self._session = session
        self._sequence = 0
        self._read_sequence = 0
        self._pending: dict[str, RequestRecord] = {}
        #: request id -> the pending proposal-timeout's loop entry.
        self._timers: dict[str, list] = {}
        #: Completed requests in completion order.
        self.completed: list[RequestRecord] = []
        #: Requests abandoned after ``max_attempts`` retries.
        self.abandoned: list[RequestRecord] = []

    def attach_to(self, site: str) -> None:
        """Re-attach to a different site (e.g. after its site departed)."""
        self.site = site

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, command: Any,
               on_done: Callable[[RequestRecord], None] | None = None
               ) -> RequestRecord:
        """Propose ``command``; retries until committed (or max attempts)."""
        self._sequence += 1
        request_id = f"{self.name}.{self._sequence}"
        record = RequestRecord(request_id=request_id, command=command,
                               submitted_at=self.now(),
                               sequence=self._sequence if self._session else 0)
        return self._track(record, on_done)

    def read(self, key: str,
             on_done: Callable[[RequestRecord], None] | None = None
             ) -> RequestRecord:
        """Linearizable read of ``key`` via the leader-lease path: served
        locally by the attached site (no consensus round), retried on the
        proposal timer like writes while no lease is active. The ``.read.``
        id segment keeps reads out of the server's session namespace."""
        self._read_sequence += 1
        request_id = f"{self.name}.read.{self._read_sequence}"
        record = RequestRecord(request_id=request_id, command=key,
                               submitted_at=self.now(), kind="read")
        return self._track(record, on_done)

    def _track(self, record: RequestRecord,
               on_done: Callable[[RequestRecord], None] | None
               ) -> RequestRecord:
        request_id = record.request_id
        if on_done is not None:
            record.callbacks.append(on_done)
        self._pending[request_id] = record
        self._send_request(record)
        self._timers[request_id] = self.loop.schedule(
            self._proposal_timeout, self._on_timeout, request_id)
        return record

    def _send_request(self, record: RequestRecord) -> None:
        if record.kind == "read":
            self._network.send_local(self.name, self.site, ReadRequest(
                request_id=record.request_id, key=record.command))
            return
        self._network.send_local(self.name, self.site, ClientRequest(
            request_id=record.request_id, command=record.command,
            session_id=self.name if self._session else "",
            sequence=record.sequence))

    def _on_timeout(self, request_id: str) -> None:
        record = self._pending.get(request_id)
        if record is None or record.done:
            return
        if (self._max_attempts is not None
                and record.attempts >= self._max_attempts):
            self._pending.pop(request_id, None)
            self._timers.pop(request_id, None)
            self.abandoned.append(record)
            return
        record.attempts += 1
        self._send_request(record)
        self._timers[request_id] = self.loop.schedule(
            self._proposal_timeout, self._on_timeout, request_id)

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------
    def on_message(self, message: Any, sender: str) -> None:
        if isinstance(message, ClientReply):
            self._complete(message.request_id, message.index, None)
        elif isinstance(message, ReadReply):
            if not message.ok:
                return  # no active lease yet: the proposal timer retries
            self._complete(message.request_id, message.index, message.value)

    def _complete(self, request_id: str, index: int | None,
                  result: Any) -> None:
        record = self._pending.pop(request_id, None)
        if record is None:
            return  # duplicate reply after completion
        timer = self._timers.pop(request_id, None)
        if timer is not None:
            self.loop.cancel(timer)
        record.committed_at = self.now()
        record.commit_index = index
        record.result = result
        self.completed.append(record)
        for callback in record.callbacks:
            callback(record)
