"""Self-announced membership (paper Section IV-D).

Sites send join/leave requests to the members; non-leaders forward to the
leader; the leader serializes changes (one site per configuration entry),
catches joiners up as non-voting members first, and detects silent leaves
via the member timeout (in :mod:`repro.fastraft.replication`).

An evicted site (removed after a silent leave while actually alive) keeps
its stale configuration, so it cannot know it was removed; when its
messages are ignored, members answer with ``NotInConfiguration`` and the
site switches to join mode -- the paper's "it will need to send a join
request to return to the configuration".

Beyond the paper (global-membership liveness, see README):

- a member can retire into a standing **non-voting observer** instead of
  leaving (``LeaveRequest(as_observer=True)`` -> a *demote* change);
- a joiner may name the member whose seat it takes over
  (``JoinRequest.replaces``); while that member's exclusion is pending
  the leader catches the joiner up early, and the caught-up joiner's
  votes count toward deciding the exclusion entry
  (``_replacement_joiners_for`` / ``DecisionMixin._decision_quorum_met``).
"""

from __future__ import annotations

from typing import Any

from repro.consensus.config import Configuration
from repro.consensus.engine import Role
from repro.consensus.entry import ConfigPayload, EntryKind, InsertedBy, LogEntry
from repro.consensus.messages import (
    JoinAccepted,
    JoinRequest,
    LeaveAccepted,
    LeaveRequest,
    NotInConfiguration,
)
from repro.consensus.quorum import decides_config_entry, has_classic_quorum


class MembershipMixin:
    """Membership behaviour of :class:`FastRaftEngine`."""

    # ------------------------------------------------------------------
    # Join / leave requests
    # ------------------------------------------------------------------
    def _handle_join_request(self, msg: JoinRequest, sender: str) -> None:
        if self.role is not Role.LEADER:
            if self._leader_id is not None and self._leader_id != self.name:
                self._send(self._leader_id, msg)  # redirect to the leader
            return
        site = msg.site
        if site in self._configuration:
            self._send(site, JoinAccepted(
                members=self._configuration.members, leader_id=self.name))
            return
        if self._membership_change_known(site):
            return  # duplicate request
        self._trace("join.accepted_for_catchup", site=site,
                    replaces=msg.replaces)
        self._enqueue_config_change({"action": "add", "site": site,
                                     "replaces": msg.replaces})
        # If the seat being taken over is already mid-exclusion, start
        # replicating to the joiner now -- its caught-up votes are what
        # let the exclusion decide when the voters alone cannot.
        self._begin_replacement_catchup()

    def _handle_leave_request(self, msg: LeaveRequest, sender: str) -> None:
        if self.role is not Role.LEADER:
            if self._leader_id is not None and self._leader_id != self.name:
                self._send(self._leader_id, msg)
            return
        site = msg.site
        if site not in self._configuration:
            if (not msg.as_observer
                    and site not in self._configuration.observers):
                self._send(site, LeaveAccepted(site=site))
            # A demotion request from a site that is already (or is
            # becoming) an observer needs no ack: the config entry
            # replicates to it like any other. Never LeaveAccepted-ack a
            # demotion -- the requester is staying, not leaving.
            return
        if self._membership_change_known(site):
            return
        if msg.as_observer:
            self._trace("demote.accepted", site=site)
            self._enqueue_config_change({"action": "demote", "site": site})
            return
        self._trace("leave.accepted", site=site)
        self._enqueue_config_change({"action": "remove", "site": site})

    def _membership_change_known(self, site: str) -> bool:
        if any(change["site"] == site for change in self._config_queue):
            return True
        pending = self._pending_config
        return pending is not None and pending["site"] == site

    def _target_config(self, action: str, site: str) -> Configuration | None:
        """Membership after the change, computed idempotently: configs
        activate on *insert*, so by (re)proposal time the current config
        may already reflect the change."""
        members = set(self._configuration.members)
        observers = set(self._configuration.observers)
        if action == "add":
            members.add(site)
            observers.discard(site)  # observer-to-voter promotion
        elif action == "demote":
            members.discard(site)
            observers.add(site)
        else:
            members.discard(site)
            observers.discard(site)
        if not members:
            return None  # never commit an empty configuration
        return Configuration(tuple(members), tuple(observers))

    # ------------------------------------------------------------------
    # Serialized configuration changes
    # ------------------------------------------------------------------
    def _start_next_config_change(self) -> None:
        if self.role is not Role.LEADER:
            return
        if self._pending_config is not None or not self._config_queue:
            return
        change = self._config_queue.pop(0)
        self._pending_config = change
        site = change["site"]
        if change["action"] == "add":
            # Non-voting catch-up before the configuration entry. The
            # setdefaults preserve progress a pre-exclusion catch-up (or
            # a standing observer's replication) has already made.
            self._start_joiner_catchup(site)
            self._send_append_entries(site)
            return
        target = self._target_config(change["action"], site)
        if target is None:
            self._pending_config = None
            self._start_next_config_change()
            return
        if change["action"] == "remove" and self._should_degrade():
            # No quorum can decide the proposal; removals fall back to the
            # degraded direct insert regardless of who initiated them.
            self._degraded_config_insert(target, change)
            return
        self._propose_config_entry(target, change)

    def _start_joiner_catchup(self, site: str) -> None:
        """Begin (or continue) non-voting catch-up replication to a
        joining site."""
        self._catchup_targets.add(site)
        self._extra_allowed.add(site)
        self.next_index.setdefault(site, 1)
        self.match_index.setdefault(site, 0)
        self.fast_match_index.setdefault(site, 0)

    def _should_degrade(self) -> bool:
        """Degraded reconfiguration applies when enabled, no classic
        quorum of members responds, and at least one *other* member still
        does. The last condition guards the most common false positive: a
        leader that hears from nobody is far more likely to be the
        disconnected one itself, and shrinking its configuration around
        itself is exactly the split-brain the paper's Section IV-E
        argument forbids."""
        if not self.timing.allow_degraded_reconfig:
            return False
        if self._quorum_of_members_responsive():
            return False
        threshold = self.timing.member_timeout_beats
        return any(self._beats_missed.get(member, 0) <= threshold
                   for member in self._configuration.others(self.name))

    # ------------------------------------------------------------------
    # Degraded reconfiguration (Section IV-F liveness)
    # ------------------------------------------------------------------
    def _quorum_of_members_responsive(self) -> bool:
        """Can the current configuration still decide proposals?"""
        threshold = self.timing.member_timeout_beats
        live = 1 if self.name in self._configuration else 0
        for member in self._configuration.others(self.name):
            if self._beats_missed.get(member, 0) <= threshold:
                live += 1
        return has_classic_quorum(self._configuration, live)

    def _degraded_config_insert(self, new_config: Configuration,
                                change: dict[str, Any]) -> None:
        """Majority silently left: the decision procedure can never gather
        a classic quorum, so the leader inserts the exclusion entry into
        its own log directly -- "the leader can insert a new configuration
        and decrease the leader's perception of quorum sizes" (Section
        IV-F). Configurations activate on insert, so chained removals
        shrink the quorum until the survivors can commit the entries.

        The entry lands at the first *empty* slot: overwriting even a
        self-approved occupant is unsafe, because a surviving replica's
        copy of a fast-committed entry is exactly a self-approved slot
        whose commit the replica has not heard about yet (the crashed
        leader acked the client). Occupied slots below the insert point
        are settled afterwards by the decision procedure under the
        shrunk configuration, which re-derives any fast-committed value
        from the recorded votes (Lemma 2)."""
        k = self.commit_index + 1
        while self.log.get(k) is not None:
            k += 1
        self._internal_seq += 1
        entry = LogEntry(
            entry_id=(f"{self.name}:config{self._internal_seq}"
                      f".t{self.current_term}"),
            kind=EntryKind.CONFIG,
            payload=ConfigPayload(members=new_config.members,
                                  observers=new_config.observers,
                                  version=self._next_config_version()),
            origin=self.name, term=self.current_term,
            inserted_by=InsertedBy.LEADER)
        change["entry_id"] = entry.entry_id
        self._insert_batch([(k, entry)])
        self._trace("config.degraded_insert", index=k, site=change["site"],
                    members=new_config.members)
        # Do not block the queue on this entry's commit; remember it so
        # the commit hook can still finish the bookkeeping later.
        self._awaiting_commit[entry.entry_id] = change
        self._pending_config = None
        self._start_next_config_change()

    def _propose_joiner_config(self, change: dict[str, Any]) -> None:
        self._propose_config_entry(
            self._target_config("add", change["site"]), change)

    # ------------------------------------------------------------------
    # Joining-leader exclusion quorum (the two-voter liveness fix)
    # ------------------------------------------------------------------
    def _begin_replacement_catchup(self) -> None:
        """While an exclusion is pending, start catch-up replication to
        any queued joiner that replaces the member being excluded, ahead
        of its turn in the change queue. The exclusion may be undecidable
        by the voters alone (2-of-2 with one dead); the caught-up joiner
        supplies the missing vote (see ``_decision_quorum_met``)."""
        pending = self._pending_config
        if pending is None or pending["action"] != "remove":
            return
        removed = pending["site"]
        for change in self._config_queue:
            if (change["action"] == "add"
                    and change.get("replaces") == removed
                    and change["site"] not in self._catchup_targets):
                self._start_joiner_catchup(change["site"])
                self._send_append_entries(change["site"])
                self._trace("join.replacement_catchup",
                            site=change["site"], replaces=removed)

    def _maybe_tiebreaker_insert(self, pending: dict[str, Any]) -> None:
        """A pending exclusion endorsed by a majority of the expanded
        electorate (tiebreaker observers / replacement joiner) but
        undecidable in order -- e.g. wedged behind a DATA slot that can
        never gather a classic quorum again: insert it directly at the
        next open slot, exactly like the degraded path, except backed by
        real votes instead of silence. The in-order decision path
        (``_decision_quorum_met``) handles the unwedged case."""
        if pending["action"] != "remove" or self.role is not Role.LEADER:
            return
        live = [i for i in self.log.indices_of(pending["entry_id"])
                if i > self.commit_index]
        if not live:
            return
        k = min(live)
        if k in self._gating_indices:
            return  # mid-gate: the decision path is already landing it
        entry = self.log.get(k)
        if entry.inserted_by is InsertedBy.LEADER:
            return  # decided; replication will commit it
        record = self.possible_entries.record_for(k, entry.entry_id)
        supporters = set(record.voters) if record is not None else set()
        if self.name not in supporters:
            return
        if has_classic_quorum(self._configuration, supporters):
            return  # a live classic quorum decides in order eventually
        extra = self._replacement_joiners_for(entry)
        if not decides_config_entry(self._configuration, supporters, extra):
            return
        target = self._target_config("remove", pending["site"])
        if target is None:
            return
        self._trace("config.tiebreaker_insert", site=pending["site"],
                    from_index=k, supporters=sorted(supporters),
                    extra=sorted(extra))
        self._degraded_config_insert(target, pending)

    def _replacement_joiners_for(self, entry) -> set[str]:
        """Caught-up joiners whose votes count toward deciding ``entry``
        (a CONFIG entry): those replacing exactly a member the entry
        excludes. Caught up means the joiner mirrors the whole
        leader-approved region, i.e. it is as good a replica as any
        voter."""
        removed = set(self._configuration.members) - set(entry.payload.members)
        if not removed:
            return set()
        joiners: set[str] = set()
        changes = list(self._config_queue)
        if self._pending_config is not None:
            changes.append(self._pending_config)
        for change in changes:
            site = change["site"]
            if (change["action"] == "add"
                    and change.get("replaces") in removed
                    and site in self._catchup_targets
                    and self.match_index.get(site, 0)
                    >= self.last_leader_index):
                joiners.add(site)
        return joiners

    def _next_config_version(self) -> int:
        version = max(self._max_known_config_version(),
                      self._config_version_floor) + 1
        self._config_version_floor = version
        return version

    def _propose_config_entry(self, new_config: Configuration,
                              change: dict[str, Any]) -> None:
        """Configuration entries travel the normal proposal path; the
        Fig. 4 latency spike the paper attributes to "concurrent proposals
        with the leader for a configuration change" is exactly this."""
        self._internal_seq += 1
        entry = LogEntry(
            entry_id=f"{self.name}:config{self._internal_seq}.t{self.current_term}",
            kind=EntryKind.CONFIG,
            payload=ConfigPayload(members=new_config.members,
                                  observers=new_config.observers,
                                  version=self._next_config_version()),
            origin=self.name, term=self.current_term,
            inserted_by=InsertedBy.SELF)
        change["entry_id"] = entry.entry_id
        self._trace("config.proposed", action=change["action"],
                    site=change["site"], members=new_config.members)
        self.propose(entry)

    def _retry_pending_config(self) -> None:
        """Re-propose a pending configuration entry that lost its slot
        (called from the leader's decision tick; cheap no-op otherwise)."""
        self._begin_replacement_catchup()
        pending = self._pending_config
        if pending is None or "entry_id" not in pending:
            return
        if pending["action"] == "remove" and self._should_degrade():
            # The remaining sites can never decide this proposal; fall
            # back to the degraded direct insert (Section IV-F).
            target = self._target_config("remove", pending["site"])
            if target is not None:
                self._degraded_config_insert(target, pending)
                return
        entry_id = pending["entry_id"]
        if self.log.indices_of(entry_id):
            self._maybe_tiebreaker_insert(pending)
            return
        # The config entry was overwritten by a concurrent proposal before
        # being decided anywhere we can see; propose it afresh.
        del pending["entry_id"]
        target = self._target_config(pending["action"], pending["site"])
        if target is None:
            self._pending_config = None
            self._start_next_config_change()
            return
        self._propose_config_entry(target, pending)

    def _finish_config_change(self, entry: LogEntry) -> None:
        pending = self._pending_config
        if pending is not None and pending.get("entry_id") == entry.entry_id:
            self._pending_config = None
        else:
            pending = self._awaiting_commit.pop(entry.entry_id, None)
            if pending is None:
                return
        site = pending["site"]
        if pending["action"] == "add":
            self._catchup_targets.discard(site)
            self._extra_allowed.discard(site)
            self._send(site, JoinAccepted(
                members=self._configuration.members, leader_id=self.name))
        elif pending["action"] == "demote":
            # The site stays a replicated observer: keep its next/match
            # bookkeeping and let the config entry inform it. A demoted
            # self steps down like a removed self (lingering, below).
            if site == self.name:
                self._begin_leader_stepdown(entry)
                return
        else:
            self._send(site, LeaveAccepted(site=site))
            if site == self.name:
                # Keep the replication bookkeeping until the lingering
                # step-down completes.
                self._begin_leader_stepdown(entry)
                return
            self.next_index.pop(site, None)
            self.match_index.pop(site, None)
            self.fast_match_index.pop(site, None)
            self._beats_missed.pop(site, None)
            self.possible_entries.forget_voter(site)
        self._trace("config.committed", action=pending["action"], site=site)
        self._start_next_config_change()

    # ------------------------------------------------------------------
    # Lingering step-down (self-removal / self-demotion)
    # ------------------------------------------------------------------
    def _begin_leader_stepdown(self, entry: LogEntry) -> None:
        """This leader just committed its own exclusion or demotion. Do
        not abdicate yet: tentative configurations do not govern (see
        ``RaftLog.config_at``), so the successors only adopt the
        new membership once they hold this CONFIG entry leader-approved
        or committed -- which a fast-track commit does not guarantee.
        Keep replicating until every new-config member has it, bounded
        by the member timeout so a dead successor cannot pin the old
        leader to the throne."""
        indices = self.log.indices_of(entry.entry_id)
        self._stepdown_index = max(indices) if indices else self.commit_index
        self._stepdown_deadline = self.now() + (
            self.timing.member_timeout_beats
            * self.timing.heartbeat_interval)
        self._trace("config.stepdown_pending", index=self._stepdown_index)
        self._maybe_complete_stepdown()

    def _maybe_complete_stepdown(self) -> None:
        if self._stepdown_index is None or self.role is not Role.LEADER:
            return
        successors = [m for m in self._configuration.members
                      if m != self.name]
        replicated = all(self.match_index.get(m, 0) >= self._stepdown_index
                         for m in successors)
        if replicated or self.now() >= self._stepdown_deadline:
            self._trace("config.stepdown", index=self._stepdown_index,
                        replicated=replicated)
            self._stepdown_index = None
            self._become_follower()

    # ------------------------------------------------------------------
    # Joining / evicted site behaviour
    # ------------------------------------------------------------------
    def seek_membership(self, replaces: str | None = None) -> None:
        """The host wants this site in the voting set *now* (C-Raft: it
        just won its local election). Needed because a standing observer
        receives the leader's heartbeats, which keep re-arming the
        election timer -- the timeout path that normally launches join
        requests never fires for it."""
        self.wants_membership = True
        self.join_replaces = replaces
        if (not self.is_member and not self._stopped
                and self.role is not Role.LEADER):
            self._send_join_requests()
            self._election_timer.reset(self.timing.join_timeout)

    def _on_leader_append(self) -> None:
        """A current-term AppendEntries arrived. It supersedes any earlier
        eviction notice, and it paces join retries for membership seekers
        that keep receiving AppendEntries (observers; joiners mid-catch-up
        whose accepting leader died): their election timer never times
        out, so lost join requests must be re-sent from here."""
        if self.name in self._configuration:
            self._evicted = False
        if (self.wants_membership and not self.is_member
                and self.now() - self._last_join_request
                >= self.timing.join_timeout):
            self._send_join_requests()

    def _on_election_timeout_as_nonmember(self) -> None:
        """Not in the configuration (never admitted, or evicted): ask to
        join instead of starting unwinnable elections. A standing
        observer that does not want a voting seat simply keeps watching
        -- being outside the voting set is its job, not an eviction."""
        if (self.name in self._configuration.observers
                and not self.wants_membership):
            self._election_timer.reset(self.timing.join_timeout)
            return
        self._send_join_requests()
        self._election_timer.reset(self.timing.join_timeout)

    def _send_join_requests(self) -> None:
        self._last_join_request = self.now()
        request = JoinRequest(site=self.name, replaces=self.join_replaces)
        contacts = [m for m in self._join_contacts() if m != self.name]
        for contact in contacts:
            self._send(contact, request)
        self._trace("join.requested", contacts=contacts,
                    replaces=self.join_replaces)

    def _join_contacts(self) -> tuple[str, ...]:
        """All known members plus the last leader hint: a lone hint can go
        stale (the hinted site may itself have left the configuration)."""
        contacts = set(self._configuration.members)
        if self._leader_id is not None:
            contacts.add(self._leader_id)
        return tuple(sorted(contacts))

    def _handle_join_accepted(self, msg: JoinAccepted, sender: str) -> None:
        self.leader_id = msg.leader_id
        self._evicted = False
        self._trace("join.completed", members=msg.members)
        self._arm_election_timer()

    def _handle_leave_accepted(self, msg: LeaveAccepted, sender: str) -> None:
        if msg.site != self.name:
            return
        if self.name in self._configuration.observers:
            # A demoted site asked to *observe*, not to leave; a stray
            # LeaveAccepted (e.g. a duplicate request racing the
            # demotion) must not shut the standing observer down.
            return
        # Our announced departure committed: exit the system. Without
        # this, the site's election timeout would immediately ask to
        # rejoin (the paper assumes a leaving site actually leaves).
        self._trace("leave.completed")
        self.stop()

    def _handle_not_in_configuration(self, msg: NotInConfiguration,
                                     sender: str) -> None:
        if self.name in msg.members:
            return  # raced with our own (re)admission
        if msg.term < self.current_term and self.role is not Role.CANDIDATE:
            # Stale notice from before our (re)admission. A candidate is
            # exempt: its term is inflated by failed elections, yet the
            # notice is live feedback to the votes it is soliciting now.
            return
        self._observe_term(msg.term)
        if (self.name in self._configuration.observers
                and not self.wants_membership):
            # A standing observer is outside the voting set by design; a
            # peer with a stale (pre-demotion) config is not evicting us.
            return
        if not self._evicted:
            self._evicted = True
            self._trace("evicted.detected", via=sender)
        if msg.leader_hint is not None:
            self.leader_id = msg.leader_hint
        if self.role is not Role.LEADER:
            self._election_timer.reset(self.timing.join_timeout)
            self._send_join_requests()

    def _on_recovery_probe_rejected(self, msg, sender: str) -> None:
        """A recovery probe found a strictly newer configuration that
        excludes this site: funnel into the same rejoin path a live
        :class:`NotInConfiguration` notice takes (evicted flag, leader
        hint, immediate join requests) -- without waiting for the
        unwinnable election timeout that notice normally rides on."""
        self._handle_not_in_configuration(
            NotInConfiguration(term=msg.term, members=msg.members,
                               leader_hint=msg.leader_hint), sender)

    @property
    def is_member(self) -> bool:  # overrides BaseEngine's property use
        return self.name in self._configuration and not self._evicted
