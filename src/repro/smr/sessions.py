"""Server-side client-session bookkeeping for exactly-once application.

A session client stamps every request with ``(session_id, sequence)``
and never reuses a sequence number. Since one session retries request
``n`` until it commits before moving to ``n+1``, the server only needs
the *highest applied sequence* (plus the index it committed at) per
session to recognize every possible duplicate -- bounded state per
session, unlike the unbounded applied-id set.

The table is deliberately *derivable* from the applied entry ids that
already travel in snapshots (``Snapshot.applied_ids``): session request
ids are ``"{session}.{sequence}"`` (the format ``Client.submit`` has
always used), so a snapshot restore rebuilds the table without any
change to the snapshot wire format.
"""

from __future__ import annotations

import functools


# Every replica of every level parses each applied id within moments
# of the others: cached, the id is split once, and the sites share one
# session string instead of keeping a copy each. The size only has to
# span the ids in flight between the first replica's apply and the
# last's; a larger cache buys no hits and shows in peak RSS.
@functools.lru_cache(maxsize=256)
def parse_session(entry_id: str) -> tuple[str, int] | None:
    """Split ``"{session}.{sequence}"``; None for non-session ids
    (noops, batches, and any id whose tail is not an integer)."""
    head, sep, tail = entry_id.rpartition(".")
    if not sep or not head:
        return None
    try:
        sequence = int(tail)
    except ValueError:
        return None
    if sequence < 0:
        return None
    return head, sequence


class SessionTable:
    """Highest applied ``(sequence, commit index)`` per session."""

    __slots__ = ("_sessions",)

    def __init__(self) -> None:
        self._sessions: dict[str, tuple[int, int]] = {}

    def observe(self, entry_id: str, index: int) -> None:
        """Record one applied DATA entry (called in apply order)."""
        parsed = parse_session(entry_id)
        if parsed is None:
            return
        session, sequence = parsed
        known = self._sessions.get(session)
        if known is None or sequence > known[0]:
            self._sessions[session] = (sequence, index)

    def last_applied(self, session: str) -> tuple[int, int]:
        """``(sequence, index)`` of the session's newest applied request
        (``(0, 0)`` for an unknown session)."""
        return self._sessions.get(session, (0, 0))

    def is_duplicate(self, session: str, sequence: int) -> bool:
        """Has this request already been applied?"""
        return sequence <= self._sessions.get(session, (0, 0))[0]
