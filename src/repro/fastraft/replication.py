"""Classic-track replication and silent-leave detection.

The leader periodically sends AppendEntries covering its leader-approved
region (``nextIndex[i] .. lastLeaderIndex``). Followers *overwrite*
conflicting slots instead of truncating: self-approved entries are
tentative, and only the leader has made safe decisions about them
(Section IV-B, "When a follower receives AppendEntries message", step 4).

The heartbeat doubles as the paper's silent-leave failure detector: a
member that misses ``member_timeout_beats`` consecutive response windows
is proposed out of the configuration.
"""

from __future__ import annotations

from repro.consensus.engine import Role
from repro.consensus.entry import InsertedBy
from repro.consensus.messages import AppendEntries, AppendEntriesResponse


class ReplicationMixin:
    """Replication behaviour of :class:`FastRaftEngine`."""

    # ------------------------------------------------------------------
    # Leader side
    # ------------------------------------------------------------------
    def _append_targets(self) -> list[str]:
        targets = list(self._configuration.replicas_without(self.name))
        targets.extend(sorted(self._catchup_targets))
        # An observer under pre-join catch-up would appear twice.
        return list(dict.fromkeys(targets))

    def _broadcast_append_entries(self) -> None:
        """One leader beat covering every replication target.

        As in classic Raft's beat, followers sharing a nextIndex get the
        *same* immutable AppendEntries object (one entries slice and one
        size memo per distinct nextIndex per round, instead of one per
        follower). Send order is per target, so the fabric's RNG stream
        does not depend on the sharing.
        """
        if self.role is not Role.LEADER:
            return
        self._tick_member_timeouts()
        round_cache: dict[int, AppendEntries] = {}
        for target in self._append_targets():
            self._send_append_entries(target, round_cache)

    def _send_append_entries(self, target: str,
                             round_cache: dict | None = None) -> None:
        next_index = self.next_index.get(target, self.last_leader_index + 1)
        if next_index <= self.log.snapshot_index:
            # The needed prefix is compacted away: ship the snapshot
            # instead of replaying the log.
            self._send_install_snapshot(target)
            return
        message = (round_cache.get(next_index)
                   if round_cache is not None else None)
        if message is None:
            prev_index = next_index - 1
            prev_term = self.log.term_at(prev_index) if prev_index > 0 else 0
            hi = min(self.last_leader_index,
                     prev_index + self.timing.max_append_batch)
            entries = tuple(self.log.entries_between(next_index, hi))
            if self.lease_enabled:
                sent_at = self.now()
                lease_until = self._lease_expiry(sent_at)
            else:
                sent_at = lease_until = 0.0
            message = AppendEntries(
                term=self.current_term, leader_id=self.name,
                prev_log_index=prev_index, prev_log_term=prev_term,
                entries=entries, leader_commit=self.commit_index,
                global_commit=self._global_commit_piggyback(),
                sent_at=sent_at, lease_until=lease_until)
            if round_cache is not None:
                round_cache[next_index] = message
        self._send(target, message)

    def _global_commit_piggyback(self) -> int:
        """C-Raft's local level overrides this; plain Fast Raft sends 0."""
        return 0

    def _note_follower_alive(self, follower: str) -> None:
        self._beats_missed[follower] = 0

    def _handle_append_entries_response(self, msg: AppendEntriesResponse,
                                        sender: str) -> None:
        self._observe_term(msg.term)
        if self.role is not Role.LEADER or msg.term < self.current_term:
            return
        follower = msg.follower
        self._note_follower_alive(follower)
        # A responding follower's needs are freshly known: a suppressed
        # snapshot re-ship (if any) may go out immediately. (A stale
        # reply racing an in-flight ship can cause one redundant bulk
        # transfer; installs are idempotent, so this is accepted cost.)
        self._snapshot_inflight.pop(follower, None)
        if msg.success:
            if msg.beat_sent_at:
                self._record_lease_ack(follower, msg.beat_sent_at)
            self.match_index[follower] = max(
                self.match_index.get(follower, 0), msg.match_index)
            self.next_index[follower] = max(
                self.next_index.get(follower, 1),
                self.match_index[follower] + 1)
            self._classic_track_commit()
            self._check_catchup_complete(follower)
            self._maybe_complete_stepdown()
        else:
            current = self.next_index.get(follower,
                                          self.last_leader_index + 1)
            self.next_index[follower] = max(
                1, min(current - 1, msg.last_log_index + 1))
            self._nudge_chunk_transfer(follower)

    def _classic_track_commit(self) -> None:
        """Commit rule over matchIndex (identical to classic Raft but
        bounded by the leader-approved region). A leader that is no
        longer a configuration member (lingering step-down after its own
        exclusion committed) holds no vote of its own -- counting itself
        would let it commit entries its successors never saw.

        The paper's rule -- walk k upward from commitIndex + 1 while a
        classic quorum of matchIndex covers k, keep the highest
        current-term k -- is stated naively in
        tests/test_fastraft_basic.py and held equal to this form."""
        # Quorum coverage is monotone in the index (match counts only
        # shrink as k grows), so the per-index member recount collapses
        # to one order statistic -- the quorum-th largest match --
        # giving the replication frontier directly.
        # Unlike classic Raft, Fast Raft's overwrite semantics leave
        # terms non-monotonic along the log, so the highest
        # current-term entry at or below the frontier is found by a
        # short downward scan rather than a single term check.
        commit = self.commit_index
        frontier = self.last_leader_index
        if frontier <= commit:
            return
        config = self._configuration
        name = self.name
        match_get = self.match_index.get
        counts = [match_get(member, 0) for member in config.members
                  if member != name]
        quorum_needed = (config.classic_quorum - 1
                         if name in config else config.classic_quorum)
        if quorum_needed > 0:
            if quorum_needed > len(counts):
                return
            counts.sort(reverse=True)
            frontier = min(frontier, counts[quorum_needed - 1])
        best = commit
        log_get = self.log.get
        term = self.current_term
        for k in range(frontier, commit, -1):
            entry = log_get(k)
            if entry is not None and entry.term == term:
                best = k
                break
        if best > commit:
            self._trace("classic_commit", index=best)
            self._advance_commit_index(best)
            self.possible_entries.drop_through(self.commit_index)
            self.ctx.loop.call_soon(self._run_decision)

    # ------------------------------------------------------------------
    # Member timeout (silent leaves, Section IV-D)
    # ------------------------------------------------------------------
    def _tick_member_timeouts(self) -> None:
        for member in self._configuration.others(self.name):
            missed = self._beats_missed.get(member, 0) + 1
            self._beats_missed[member] = missed
            if missed > self.timing.member_timeout_beats:
                self._on_member_timeout(member)

    def _on_member_timeout(self, member: str) -> None:
        if any(change["site"] == member for change in self._config_queue):
            return
        pending = self._pending_config
        if pending is not None and pending["site"] == member:
            return
        if any(change["site"] == member
               for change in self._awaiting_commit.values()):
            return
        self._trace("member_timeout", site=member)
        self._enqueue_config_change({"action": "remove", "site": member,
                                     "reason": "member_timeout"})

    # ------------------------------------------------------------------
    # Follower side
    # ------------------------------------------------------------------
    def _handle_append_entries(self, msg: AppendEntries, sender: str) -> None:
        self._observe_term(msg.term, leader_hint=msg.leader_id)
        if msg.term < self.current_term:
            self._send(sender, AppendEntriesResponse(
                term=self.current_term, success=False, follower=self.name,
                match_index=0, last_log_index=self.log.last_index))
            return
        if self.role is not Role.FOLLOWER:
            self._become_follower(msg.leader_id)
        else:
            self.leader_id = msg.leader_id
            self._arm_election_timer()
        if self.name in self._configuration:
            # Current-term replication from the leader is authoritative:
            # any earlier eviction notice is superseded.
            self._evicted = False
        self._maybe_retry_join()
        if not self._log_matches(msg.prev_log_index, msg.prev_log_term):
            self._send(sender, AppendEntriesResponse(
                term=self.current_term, success=False, follower=self.name,
                match_index=0, last_log_index=self.log.last_index))
            return
        self._absorb_global_commit(msg.global_commit)
        to_insert = []
        for index, entry in msg.entries:
            existing = self.log.get(index)
            if (existing is not None and existing.entry_id == entry.entry_id
                    and existing.term == entry.term
                    and existing.inserted_by is InsertedBy.LEADER):
                continue  # already absorbed
            to_insert.append((index, entry))
        last_new = msg.prev_log_index + len(msg.entries)
        if self._SYNC_GATE:
            # The gate completes inline for these engines: skip the
            # completion closure (and its allocation) entirely.
            self._insert_batch(to_insert)
            self._append_entries_absorbed(sender, msg, last_new)
            return
        self._gate_insert(to_insert, lambda: self._append_entries_absorbed(
            sender, msg, last_new))

    def _append_entries_absorbed(self, sender: str, msg: AppendEntries,
                                 last_new: int) -> None:
        if msg.leader_commit > self.commit_index:
            self._advance_commit_index(min(msg.leader_commit,
                                           max(last_new, self.commit_index)))
        if msg.lease_until:
            self._note_lease_beat(msg)
        self._send(sender, AppendEntriesResponse(
            term=self.current_term, success=True, follower=self.name,
            match_index=last_new, last_log_index=self.log.last_index,
            beat_sent_at=msg.sent_at))

    def _absorb_global_commit(self, global_commit: int) -> None:
        """C-Raft local level overrides; plain Fast Raft ignores."""

    def _log_matches(self, prev_index: int, prev_term: int) -> bool:
        """Consistency check adapted to overwrite semantics: the previous
        entry must be leader-approved with the matching term, already
        committed, or the sentinel."""
        if prev_index == 0:
            return True
        if prev_index <= self.commit_index:
            return True
        entry = self.log.get(prev_index)
        if entry is None or entry.inserted_by is not InsertedBy.LEADER:
            return False
        return entry.term == prev_term
