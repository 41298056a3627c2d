"""The classic Raft protocol engine.

Faithful to the paper's Section III-A description (which follows Ongaro's
dissertation): proposers send entries to the term's leader, the leader
appends and replicates them through periodic AppendEntries, and commits
once a classic quorum acknowledges. Conflicting follower suffixes are
truncated. The membership is static: the bootstrap configuration governs
the whole run, because the paper uses classic Raft only as the
fixed-membership baseline for Fast Raft (its dynamic-network claims are
Fast Raft's alone). A classic log therefore never holds a CONFIG entry,
and a site started outside the configuration idles.

The replication path itself (beat, ack, follow) is :class:`BaseEngine`'s;
this engine supplies its frontier (the log end), commits the classic
commit point it computes, and supplies the truncating absorb step.
"""

from __future__ import annotations

from repro.consensus.engine import BaseEngine, Role, handles
from repro.consensus.entry import EntryKind, InsertedBy, LogEntry
from repro.consensus.messages import (
    AppendEntries,
    ClientRequest,
    CommitNotice,
    ProposeToLeader,
    RequestVote,
)
from repro.net.sizes import estimate_size


class ClassicRaftEngine(BaseEngine):
    """Classic Raft over an injected transport."""

    protocol_name = "raft"

    # ------------------------------------------------------------------
    # Role transitions
    # ------------------------------------------------------------------
    def _make_vote_request(self) -> RequestVote:
        last_index = self.log.last_index
        last_term = self.log.term_at(last_index) if last_index else 0
        return RequestVote(term=self.current_term, candidate_id=self.name,
                           last_log_index=last_index, last_log_term=last_term)

    def _candidate_up_to_date(self, msg: RequestVote) -> bool:
        """Classic rule: compare last entry term, then length."""
        my_last_index = self.log.last_index
        my_last_term = self.log.term_at(my_last_index) if my_last_index else 0
        if msg.last_log_term != my_last_term:
            return msg.last_log_term > my_last_term
        return msg.last_log_index >= my_last_index

    def _init_leader_state(self) -> None:
        start = self.log.last_index + 1
        self.next_index = {m: start for m in self._configuration.members}
        self.match_index = {m: 0 for m in self._configuration.members}
        # A term-opening no-op lets entries from earlier terms commit
        # transitively (Raft never counts replicas of old-term entries).
        self._append_as_leader(self._make_noop())
        self._broadcast_append_entries()
        self._heartbeat.start()

    # ------------------------------------------------------------------
    # Proposals
    # ------------------------------------------------------------------
    def _handle_client_request(self, msg: ClientRequest, sender: str) -> None:
        entry = LogEntry(entry_id=msg.request_id, kind=EntryKind.DATA,
                         payload=msg.command, origin=self.name,
                         term=0, inserted_by=InsertedBy.LEADER)
        if self.role is Role.LEADER:
            self._accept_proposal(entry)
        elif self._leader_id is not None and self._leader_id != self.name:
            self._send(self._leader_id, ProposeToLeader(entry=entry))
        # No known leader: drop; the client's proposal timeout retries.

    @handles(ProposeToLeader)
    def _handle_propose_to_leader(self, msg: ProposeToLeader,
                                  sender: str) -> None:
        if self.role is not Role.LEADER:
            # Stale redirect; forward once more if we know better.
            if self._leader_id is not None and self._leader_id != self.name:
                self._send(self._leader_id, msg)
            return
        self._accept_proposal(msg.entry)

    def _accept_proposal(self, entry: LogEntry) -> None:
        """Leader-side dedup + append."""
        committed = self.log.committed_index_of(entry.entry_id,
                                                self.commit_index)
        if committed is not None:
            self._notify_origin(self.log.get(committed), committed)
            return
        if self.log.indices_of(entry.entry_id):
            return  # already in flight; commit will notify
        self._append_as_leader(entry)

    def _append_as_leader(self, entry: LogEntry) -> None:
        stamped = entry.with_mark(self.current_term, InsertedBy.LEADER)
        self.log.append(stamped)
        size = stamped._est_size
        self.ctx.store.touch(
            "log", size=size if size is not None else estimate_size(stamped))
        if self.timing.eager_append:
            self._broadcast_append_entries()
        self._maybe_commit_single_member()

    def _maybe_commit_single_member(self) -> None:
        """A single-member configuration commits its own appends."""
        if self._configuration.size == 1 and self.role is Role.LEADER:
            self._advance_leader_commit()

    def _make_noop(self) -> LogEntry:
        self._internal_seq += 1
        entry_id = f"{self.name}:noop{self._internal_seq}.t{self.current_term}"
        return LogEntry(entry_id=entry_id, kind=EntryKind.NOOP, payload=None,
                        origin=self.name, term=self.current_term,
                        inserted_by=InsertedBy.LEADER)

    # ------------------------------------------------------------------
    # Replication (the shared path is BaseEngine's)
    # ------------------------------------------------------------------
    def _replication_frontier(self) -> int:
        return self.log.last_index

    def _advance_leader_commit(self) -> None:
        """Classic Raft commits the classic track's commit point."""
        point = self._classic_commit_point()
        if point > self.commit_index:
            self._advance_commit_index(point)

    def _log_matches(self, prev_index: int, prev_term: int) -> bool:
        if prev_index == 0:
            return True
        if prev_index <= self.commit_index:
            return True  # committed prefixes agree (Invariant 1)
        if not self.log.has(prev_index):
            return False
        return self.log.term_at(prev_index) == prev_term

    def _absorb_append_entries(self, msg: AppendEntries, sender: str) -> None:
        """Classic absorb: truncate the log at the first conflicting
        entry, then append."""
        truncated = False
        inserted_bytes = 0
        for index, entry in msg.entries:
            if index <= self.commit_index:
                continue  # committed prefixes agree (and may be compacted)
            existing = self.log.get(index)
            if existing is not None and existing.term == entry.term:
                continue  # log matching: same index+term => same entry
            if existing is not None and not truncated:
                self.log.truncate_from(index)
                truncated = True
            self.log.insert(index, entry)
            size = entry._est_size
            inserted_bytes += (size if size is not None
                               else estimate_size(entry))
        if inserted_bytes or truncated:
            self.ctx.store.touch("log", size=max(1, inserted_bytes))
        self._append_entries_absorbed(
            sender, msg, msg.prev_log_index + len(msg.entries))

    # ------------------------------------------------------------------
    # Commit side effects (leader)
    # ------------------------------------------------------------------
    def _on_entry_committed(self, index: int, entry: LogEntry) -> None:
        if self.role is not Role.LEADER:
            return
        self._notify_origin(entry, index)

    def _notify_origin(self, entry: LogEntry, index: int) -> None:
        if entry.origin != self.name:
            self._send(entry.origin, CommitNotice(
                entry_id=entry.entry_id, index=index, term=entry.term))
        # origin == self is handled by the base engine's on_origin_commit.
