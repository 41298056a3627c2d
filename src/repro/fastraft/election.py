"""Leader election with Fast Raft's recovery algorithm (Section IV-C).

Two changes from classic Raft:

- The up-to-date comparison considers only *leader-approved* entries
  ("self-approved entries cannot be considered in this check, as proposers
  can send an arbitrarily large number of proposals to a follower that
  ultimately may not have been agreed upon").
- Granting voters attach all their self-approved entries; the winner
  copies them into ``possibleEntries`` so the normal decision procedure
  re-derives any value a previous leader may have fast-committed (a fast
  quorum's entry holds the plurality in every classic quorum of votes, so
  the new leader makes the same choice -- Lemma 2).

One further implementation choice the paper leaves open: the new leader
*restamps* its uncommitted leader-approved suffix with its own term and
re-replicates it. Identical data, new term -- the same mechanism
Viewstamped Replication uses on view change -- which lets inherited
entries commit under the current-term commit guard without a filler no-op.
"""

from __future__ import annotations

from repro.consensus.entry import InsertedBy
from repro.consensus.messages import (
    IndexedEntries,
    RequestVote,
    RequestVoteResponse,
)


class ElectionMixin:
    """Election behaviour of :class:`FastRaftEngine`."""

    def _make_vote_request(self) -> RequestVote:
        self._recovery_votes = {}
        last_leader = self.last_leader_index
        last_term = self.log.term_at(last_leader) if last_leader else 0
        return RequestVote(term=self.current_term, candidate_id=self.name,
                           last_log_index=last_leader,
                           last_log_term=last_term)

    def _candidate_up_to_date(self, msg: RequestVote) -> bool:
        """Compare leader-approved positions only."""
        my_last = self.last_leader_index
        my_term = self.log.term_at(my_last) if my_last else 0
        if msg.last_log_term != my_term:
            return msg.last_log_term > my_term
        return msg.last_log_index >= my_last

    def _make_vote_response(self, granted: bool) -> RequestVoteResponse:
        self_approved: IndexedEntries = ()
        if granted:
            self_approved = tuple(
                (index, entry)
                for index, entry in self.log.entries_with_provenance(
                    InsertedBy.SELF)
                if index > self.commit_index)
        return RequestVoteResponse(term=self.current_term,
                                   vote_granted=granted, voter=self.name,
                                   self_approved=self_approved)

    def _absorb_vote_response(self, msg: RequestVoteResponse) -> None:
        self._recovery_votes[msg.voter] = msg.self_approved

    def _init_leader_state(self) -> None:
        self._evicted = False  # a winner is a member by definition
        start = self.commit_index + 1  # paper: last committed entry + 1
        replicas = self._configuration.replicas
        self.next_index = {m: start for m in replicas}
        self.match_index = {m: 0 for m in replicas}
        self.fast_match_index = {m: 0 for m in replicas}
        self.possible_entries.clear()
        self._beats_missed = {}
        self._gap_since = {}
        self._restamp_inherited_suffix()
        self._copy_recovery_votes()
        self._run_decision()
        self._broadcast_append_entries()
        self._heartbeat.start()
        self._decision_timer.start()

    def _restamp_inherited_suffix(self) -> None:
        """Restamp uncommitted leader-approved entries with the new term so
        they can commit under the current-term guard (data unchanged)."""
        restamped = []
        for k in range(self.commit_index + 1, self.last_leader_index + 1):
            entry = self.log.get(k)
            if entry is not None and entry.inserted_by is InsertedBy.LEADER:
                restamped.append(
                    (k, entry.with_mark(self.current_term, InsertedBy.LEADER)))
        self._insert_batch(restamped)

    def _copy_recovery_votes(self) -> None:
        """"Copy all self-approved entries received to possibleEntries"."""
        recovered = dict(self._recovery_votes)
        recovered[self.name] = tuple(
            (index, entry)
            for index, entry in self.log.entries_with_provenance(
                InsertedBy.SELF)
            if index > self.commit_index)
        count = 0
        for voter, entries in recovered.items():
            for index, entry in entries:
                if index <= self.commit_index:
                    continue
                self.possible_entries.add_vote(index, entry, voter)
                count += 1
        if count:
            self._trace("recovery", entries=count,
                        voters=sorted(recovered))
        self._recovery_votes = {}
