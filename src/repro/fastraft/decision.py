"""The leader's periodic decision procedure (paper Section IV-B,
"Periodically run by the leader").

While the index just above ``commitIndex`` has votes from a classic
quorum, the leader decides it: insert the plurality entry leader-approved,
update ``fastMatchIndex`` for the matching voters, and fast-commit when a
fast quorum matches and the entry carries the current term. If the fast
quorum is missing, the decided entry rides the classic track (ordinary
AppendEntries replication) and the loop stops -- the paper gates the fast
track on "the last index was committed".

Two additions the paper leaves implicit:

- **duplicates** -- the plurality winner is inserted even when its id
  already committed or was decided at another index (a retried client
  request landed twice): replacing it could overwrite an entry a fast
  quorum chose, which Lemma 2 forbids. Exactly-once is enforced when
  entries apply (the SMR layer skips a repeated id). Only a null-bucket
  win becomes a no-op;
- **gap fill** -- when the pending index stays undecidable for
  ``leader_fill_timeout`` (votes lost, or a proposal that no quorum ever
  saw), the leader re-proposes at that index, through the normal
  proposal path, the best-known candidate not already settled at another
  index (``_is_duplicate_elsewhere`` screens these re-proposals only), or
  a no-op. Acting as a proposer keeps the safety argument intact: the
  decision still requires a classic quorum of votes, so a
  fast-quorum-chosen entry still wins any plurality.
"""

from __future__ import annotations

from functools import partial

from repro.consensus.engine import Role
from repro.consensus.entry import EntryKind, InsertedBy, LogEntry, make_noop
from repro.consensus.messages import ProposeEntry
from repro.consensus.quorum import (decides_config_entry,
                                    has_classic_quorum, has_fast_quorum)
from repro.fastraft.votes import VoteRecord


class DecisionMixin:
    """Decision-procedure behaviour of :class:`FastRaftEngine`."""

    def _run_decision(self) -> None:
        """Decide every index (in order) that has a classic quorum of
        votes. Deciding runs ahead of committing: contested indices that
        miss their fast quorum are still inserted leader-approved, so one
        AppendEntries round replicates -- and its acks commit -- the whole
        decided range (this is what makes ``lastLeaderIndex`` a range).
        Only the fast-track *commit* requires "the last index was
        committed"."""
        if self.role is not Role.LEADER:
            return
        k = self.commit_index + 1
        while True:
            if k in self._gating_indices:
                break  # a C-Raft insert gate is in flight for k
            outcome = self._decide_index(k)
            if outcome in ("blocked", "pending"):
                break
            k = max(k + 1, self.commit_index + 1)

    def _decide_index(self, k: int) -> str:
        """Try to decide index ``k``.

        Returns ``"committed"`` (fast track succeeded), ``"classic"``
        (decided but waiting on classic-track replication), ``"pending"``
        (insert gate in flight), or ``"blocked"`` (no quorum of votes).
        """
        existing = self.log.get(k)
        if existing is not None and existing.inserted_by is InsertedBy.LEADER:
            # Already decided (this pass or an inherited entry); only the
            # fast-quorum check can change anything now.
            return self._after_decision(k)
        voters = self.possible_entries.voters_at(k)
        if not self._decision_quorum_met(k, voters):
            self._maybe_gap_fill(k)
            return "blocked"
        self._gap_since.pop(k, None)
        chosen = self._choose_entry(k)
        stamped = chosen.with_mark(self.current_term, InsertedBy.LEADER)
        self.possible_entries.null_out(chosen.entry_id, except_index=k)
        if self._tracing:
            self._trace("decision", index=k, entry_id=chosen.entry_id,
                        votes=len(voters))
        self._gating_indices.add(k)
        self._gate_insert([(k, stamped)],
                          partial(self._decision_insert_done, k))
        if k in self._gating_indices:
            return "pending"
        return self._last_decision_outcome

    def _decision_quorum_met(self, k: int, voters: set[str]) -> bool:
        """Vote quorum for deciding index ``k``.

        Ordinary entries need the classic quorum of members, full stop.
        When that fails and the plurality winner at ``k`` is a CONFIG
        entry, the per-entry override applies: tiebreaker observers
        (voting set <= 2) and a caught-up joiner replacing the member
        being excluded expand the electorate, and a strict majority of
        the expanded electorate -- which must include this leader's own
        vote -- decides. This is what un-wedges a 2-voter configuration
        after one voter dies (see ROADMAP "Global-membership deadlock").
        """
        if has_classic_quorum(self._configuration, voters):
            return True
        for record in self.possible_entries.candidates(k):
            # Only the plurality winner matters: it is what _choose_entry
            # will pick if the quorum passes.
            if record.is_null or record.entry.kind is not EntryKind.CONFIG:
                break
            if self.name not in voters:
                break  # an expanded electorate never decides leaderless
            extra = self._replacement_joiners_for(record.entry)
            if decides_config_entry(self._configuration, voters, extra):
                self._trace("decision.tiebreak", index=k,
                            entry_id=record.entry.entry_id,
                            votes=sorted(voters), extra=sorted(extra))
                return True
            break
        return False

    def _decision_insert_done(self, k: int) -> None:
        """Continuation once the decided entry reached the log (immediately
        for plain Fast Raft; after local consensus for C-Raft)."""
        self._gating_indices.discard(k)
        self._last_decision_outcome = self._after_decision(k)
        # Re-enter the loop on a fresh stack: for synchronous gates the
        # caller is still inside _run_decision and continues by itself;
        # for asynchronous (C-Raft) gates this wakes the loop back up.
        self.ctx.loop.schedule(0.0, self._run_decision)

    def _after_decision(self, k: int) -> str:
        """Steps (c)-(e): update fastMatchIndex, try the fast commit.

        The fast-quorum member count is deferred until the fast track
        is actually reachable (``k`` right above the commit index,
        current-term entry): for a decided-ahead range riding the
        classic track the count's outcome would be discarded, and it is
        an O(members) sweep per decided index.
        """
        entry = self.log.get(k)
        if entry is None:
            return "blocked"
        fast_match = self.fast_match_index
        record = self.possible_entries.record_for(k, entry.entry_id)
        if record is not None:
            for voter in record.voters:
                current = fast_match.get(voter)
                if current is not None and current < k:
                    fast_match[voter] = k
        name = self.name
        if fast_match.get(name, 0) < k:
            fast_match[name] = k
        if k != self.commit_index + 1 or entry.term != self.current_term:
            return "classic"
        config = self._configuration
        fast_match_get = fast_match.get
        matches = 0
        for member in config.members:
            if fast_match_get(member, 0) >= k:
                matches += 1
        if has_fast_quorum(config, matches):
            # "The fast track can only be taken here if the last index was
            # committed" -- otherwise commitIndex would cover earlier,
            # undecided indices.
            if self._tracing:
                self._trace("fast_commit", index=k, entry_id=entry.entry_id,
                            matches=matches)
            self._advance_commit_index(k)
            self.possible_entries.drop_through(k)
            return "committed"
        return "classic"

    # ------------------------------------------------------------------
    # Choice and duplicates
    # ------------------------------------------------------------------
    def _choose_entry(self, k: int) -> LogEntry:
        """Plurality winner at ``k``, or a no-op when null votes win.

        The plurality winner is inserted even if the same entry id already
        committed at another index (a client retry landed twice): skipping
        it could overwrite an entry a fast quorum chose at ``k``, which is
        exactly what Lemma 2 forbids. Double commits of one entry id are
        neutralized at apply time (exactly-once in the SMR layer).
        """
        for record in self.possible_entries.candidates(k):
            if record.is_null:
                break
            return record.entry
        return make_noop(self.name, self.current_term,
                         inserted_by=InsertedBy.SELF)

    def _is_duplicate_elsewhere(self, record: VoteRecord, k: int) -> bool:
        """Is this candidate's id already settled at some other index?
        (Used only to pick *gap-fill re-proposals*, never decisions.)"""
        entry_id = record.entry.entry_id
        if self.log.committed_index_of(entry_id, self.commit_index) is not None:
            return True
        return any(
            self.log.get(i) is not None
            and self.log.get(i).inserted_by is InsertedBy.LEADER
            for i in self.log.indices_of(entry_id) if i != k)

    # ------------------------------------------------------------------
    # Gap fill
    # ------------------------------------------------------------------
    def _maybe_gap_fill(self, k: int) -> None:
        """Re-propose at a stuck pending index (liveness only)."""
        work_beyond = (self.log.last_index > k
                       or any(i > k for i in self.possible_entries.indices()))
        has_some_votes = self.possible_entries.has_votes(k)
        if not (work_beyond or has_some_votes):
            self._gap_since.pop(k, None)
            return
        first_seen = self._gap_since.setdefault(k, self.now())
        if self.now() - first_seen < self.timing.leader_fill_timeout:
            return
        self._gap_since[k] = self.now()  # back off before the next fill
        candidates = self.possible_entries.candidates(k)
        refill: LogEntry | None = None
        for record in candidates:
            if not record.is_null and not self._is_duplicate_elsewhere(record, k):
                refill = record.entry
                break
        if refill is None:
            refill = make_noop(self.name, self.current_term,
                               inserted_by=InsertedBy.SELF)
        if self._tracing:
            self._trace("gap_fill", index=k, entry_id=refill.entry_id)
        message = ProposeEntry(index=k, entry=refill)
        for site in self._proposal_targets():
            self._send(site, message)
