"""Proposal broadcast and vote intake (paper Section IV-B).

Proposers broadcast entries to every configuration member; each site
inserts into the targeted slot if empty (self-approved) and reports its
slot content to the leader as a vote. The leader files votes in
``possibleEntries`` and adjusts ``nextIndex`` from the voter's reported
commit index.
"""

from __future__ import annotations

from functools import partial

from repro.consensus.engine import Role, handles
from repro.consensus.entry import EntryKind, InsertedBy, LogEntry
from repro.consensus.messages import (
    ClientRequest,
    CommitNotice,
    ProposeEntry,
    VoteEntry,
)


class ProposalMixin:
    """Proposal-side behaviour of :class:`FastRaftEngine`."""

    # ------------------------------------------------------------------
    # Originating proposals
    # ------------------------------------------------------------------
    def _handle_client_request(self, msg: ClientRequest, sender: str) -> None:
        entry = LogEntry(entry_id=msg.request_id, kind=EntryKind.DATA,
                         payload=msg.command, origin=self.name,
                         term=0, inserted_by=InsertedBy.SELF)
        self.propose(entry)

    def propose(self, entry: LogEntry) -> None:
        """Broadcast ``entry`` to all members (steps 1-2 of the proposal
        rule; :meth:`_handle_propose_entry` quotes it). Re-invocation (a
        client retry) re-broadcasts at the same index while the slot is
        still winnable, regenerating lost votes; once a different entry
        committed the slot, a fresh index is used.
        """
        committed_at = self.log.committed_index_of(entry.entry_id,
                                                   self.commit_index)
        if committed_at is not None:
            self._outstanding_proposals.pop(entry.entry_id, None)
            self.ctx.on_origin_commit(self.log.get(committed_at),
                                      committed_at)
            return
        if entry.origin == self.name:
            self._outstanding_proposals[entry.entry_id] = entry
        live = [i for i in self.log.indices_of(entry.entry_id)
                if i > self.commit_index]
        index = min(live) if live else self.log.last_index + 1
        if self._tracing:
            self._trace("propose", index=index, entry_id=entry.entry_id,
                        retry=bool(live))
        message = ProposeEntry(index=index, entry=entry)
        for site in self._proposal_targets():
            self._send(site, message)

    def _proposal_targets(self) -> list[str]:
        """All replicas plus catch-up joiners: observer and joiner slot
        votes are counted only where the quorum rules say so (tiebreaker
        CONFIG decisions), but they must mirror the slots to vote at
        all."""
        if not self._catchup_targets:
            # Common case: no joiners catching up, and the replica tuple
            # is already deduplicated -- skip the merge/dedup rebuild.
            return self._configuration.replicas
        targets = list(self._configuration.replicas)
        targets.extend(sorted(self._catchup_targets))
        return list(dict.fromkeys(targets))

    # ------------------------------------------------------------------
    # Receiving proposals (every site, the leader included)
    # ------------------------------------------------------------------
    @handles(ProposeEntry)
    def _handle_propose_entry(self, msg: ProposeEntry, sender: str) -> None:
        """Steps 3-4 of "To propose an entry": insert into the targeted
        slot if it is empty, then vote for whatever the slot holds. The
        vote is the insert gate's continuation: the C-Raft global gate
        completes it after a round of local consensus, by which time the
        slot may hold something else, so it re-reads the slot."""
        proposed, index = msg.entry, msg.index
        log = self.log
        committed_at = log.committed_index_of(proposed.entry_id,
                                              self.commit_index)
        if committed_at is not None:
            self._notify_origin(log.get(committed_at), committed_at)
            return
        if index <= self.commit_index:
            # The slot committed with a different entry; a vote would be
            # ignored. The proposer's timeout re-targets a fresh index.
            return
        occupant = log.get(index)
        if occupant is not None:
            # Slot occupied: do not overwrite; vote for the occupant
            # (step 4 sends log[i] regardless of insertion).
            self._send_slot_vote(index, occupant)
            return
        stamped = proposed.with_mark(self.current_term, InsertedBy.SELF)
        self._gate_insert([(index, stamped)],
                          partial(self._send_slot_vote, index))

    def _send_slot_vote(self, index: int, entry: LogEntry | None = None
                        ) -> None:
        """Step 4 of the proposal rule, "Send log[i] and commitIndex to
        leaderId": whatever the slot holds is this site's vote for it."""
        if entry is None:
            entry = self.log.get(index)
        if entry is None or self._leader_id is None:
            return
        self._send(self._leader_id, VoteEntry(
            term=self.current_term, index=index, entry=entry,
            commit_index=self.commit_index, voter=self.name))

    # ------------------------------------------------------------------
    # Receiving votes (leader)
    # ------------------------------------------------------------------
    @handles(VoteEntry)
    def _handle_vote_entry(self, msg: VoteEntry, sender: str) -> None:
        self._observe_term(msg.term)
        if self.role is not Role.LEADER:
            return
        if msg.index <= self.commit_index:
            return
        self.possible_entries.add_vote(msg.index, msg.entry, msg.voter)
        # "Set nextIndex[i] = sentCommitIndex" (+1 for the first entry the
        # voter has not committed); keeps a follower consistent with a
        # newly elected leader whose own bookkeeping is fresh.
        if msg.voter in self.next_index and msg.voter != self.name:
            self.next_index[msg.voter] = min(msg.commit_index + 1,
                                             self.last_leader_index + 1)

    # ------------------------------------------------------------------
    # Commit notification
    # ------------------------------------------------------------------
    def _notify_origin(self, entry: LogEntry, index: int) -> None:
        if entry is None:
            return
        if entry.origin == self.name:
            self.ctx.on_origin_commit(entry, index)
        else:
            self._send(entry.origin, CommitNotice(
                entry_id=entry.entry_id, index=index, term=entry.term))
