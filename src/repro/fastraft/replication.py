"""Fast Raft's part of classic-track replication, and silent-leave
detection.

The classic track is Raft's AppendEntries path, written once in
:class:`BaseEngine`; this mixin supplies what Fast Raft changes in it.
The leader replicates its leader-approved region (``nextIndex[i] ..
lastLeaderIndex``), and commits the classic commit point computed over
that region, settling the decided indexes it covers. Followers
*overwrite* conflicting slots instead of truncating: self-approved
entries are tentative, and only the leader has made safe decisions about
them (Section IV-B, "When a follower receives AppendEntries message",
step 4).

The heartbeat doubles as the paper's silent-leave failure detector: a
member that misses ``member_timeout_beats`` consecutive response windows
is proposed out of the configuration.
"""

from __future__ import annotations

from functools import partial

from repro.consensus.entry import InsertedBy
from repro.consensus.messages import AppendEntries


class ReplicationMixin:
    """Replication behaviour of :class:`FastRaftEngine`."""

    # ------------------------------------------------------------------
    # Leader side
    # ------------------------------------------------------------------
    def _replication_frontier(self) -> int:
        return self.last_leader_index

    def _note_follower_alive(self, follower: str) -> None:
        self._beats_missed[follower] = 0

    def _advance_leader_commit(self) -> None:
        """Commit the classic track's commit point (bounded by the
        leader-approved region, ``_replication_frontier``), then settle
        the decided indexes it covers and wake the decision loop.

        The paper's rule -- walk k upward from commitIndex + 1 while a
        classic quorum of matchIndex covers k, keep the highest
        current-term k -- is stated naively in
        tests/test_fastraft_basic.py and held equal to this form."""
        best = self._classic_commit_point()
        if best > self.commit_index:
            self._trace("classic_commit", index=best)
            self._advance_commit_index(best)
            self.possible_entries.drop_through(self.commit_index)
            self.ctx.loop.schedule(0.0, self._run_decision)

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
        self._enqueue_config_change({"action": "remove", "site": member})

    # ------------------------------------------------------------------
    # Follower side
    # ------------------------------------------------------------------
    def _absorb_append_entries(self, msg: AppendEntries, sender: str) -> None:
        """Overwrite absorb: leader-approved entries replace whatever the
        slot holds, through the (possibly asynchronous) insert gate."""
        to_insert = []
        for index, entry in msg.entries:
            existing = self.log.get(index)
            if (existing is not None and existing.entry_id == entry.entry_id
                    and existing.term == entry.term
                    and existing.inserted_by is InsertedBy.LEADER):
                continue  # already absorbed
            to_insert.append((index, entry))
        last_new = msg.prev_log_index + len(msg.entries)
        self._gate_insert(to_insert, partial(
            self._append_entries_absorbed, sender, msg, last_new))

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
