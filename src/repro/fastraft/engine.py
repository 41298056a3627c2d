"""FastRaftEngine: assembly of the Fast Raft behaviour mixins.

State layout follows the paper's Section IV-A: persistent ``currentTerm``,
``votedFor``, ``log`` (via :class:`BaseEngine` and the stable store) plus
``lastLeaderIndex`` (derived from provenance marks on recovery); volatile
leader state ``nextIndex``, ``matchIndex`` (both :class:`BaseEngine`'s),
``fastMatchIndex``, and ``possibleEntries``.

The ``_gate_insert`` hook is the C-Raft extension point: every log insert
funnels through it, and the inter-cluster engine overrides it to first run
intra-cluster consensus on a global-state entry (Section V-B).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.consensus.config import Configuration
from repro.consensus.engine import BaseEngine, EngineContext, Role
from repro.consensus.entry import EntryKind, InsertedBy, LogEntry
from repro.net.sizes import estimate_size
from repro.fastraft.decision import DecisionMixin
from repro.fastraft.election import ElectionMixin
from repro.fastraft.membership import MembershipMixin
from repro.fastraft.proposals import ProposalMixin
from repro.fastraft.replication import ReplicationMixin
from repro.fastraft.votes import PossibleEntries
from repro.sim.timers import PeriodicTimer


class FastRaftEngine(ProposalMixin, DecisionMixin, ReplicationMixin,
                     ElectionMixin, MembershipMixin, BaseEngine):
    """Fast Raft over an injected transport."""

    protocol_name = "fastraft"

    #: True when ``_gate_insert`` completes synchronously (plain Fast
    #: Raft and the C-Raft local engine). The fused proposal handler
    #: relies on it to insert inline; the C-Raft global engine defers
    #: inserts behind a round of local consensus and sets it False.
    _SYNC_GATE = True

    def __init__(self, ctx: EngineContext,
                 bootstrap_config: Configuration) -> None:
        super().__init__(ctx, bootstrap_config)
        # Volatile leader state (Section IV-A).
        self.possible_entries = PossibleEntries()
        self.fast_match_index: dict[str, int] = {}
        # lastLeaderIndex is persistent in the paper; here it is derived
        # from the (persistent) provenance marks on every recovery. A
        # compacted prefix holds only committed -- hence decided -- entries,
        # so the compaction point floors it.
        self.last_leader_index = max(
            self.log.last_with_provenance(InsertedBy.LEADER),
            self.log.snapshot_index)
        # The decision procedure runs on its own cadence beside the
        # heartbeat (see the TimingConfig calibration note).
        self._decision_timer = PeriodicTimer(
            ctx.loop, self.timing.effective_decision_interval,
            self._decision_tick)
        # Failure detection / liveness bookkeeping.
        self._beats_missed: dict[str, int] = {}
        self._gap_since: dict[int, float] = {}
        self._gating_indices: set[int] = set()
        self._last_decision_outcome = "blocked"
        # Membership bookkeeping.
        self._awaiting_commit: dict[str, dict[str, Any]] = {}
        self._recovery_votes: dict[str, tuple] = {}
        self._evicted = False
        # A standing observer keeps replicating without asking to join;
        # the host flips this on when the site actually wants a voting
        # seat (C-Raft: its local leadership demands global membership).
        self.wants_membership = False
        # Liveness hint carried on this site's JoinRequests: the member
        # whose seat it takes over (C-Raft: the crashed previous cluster
        # leader). While that member's exclusion is pending, this
        # caught-up joiner counts toward the exclusion quorum.
        self.join_replaces: str | None = None
        self._last_join_request = float("-inf")
        # Lingering step-down after committing our own exclusion or
        # demotion (see MembershipMixin._begin_leader_stepdown).
        self._stepdown_index: int | None = None
        self._stepdown_deadline = 0.0
        self._config_version_floor = self._max_known_config_version()
        # Proposals this site originated that have not committed yet.
        # When a commit reveals that one lost its slot to a concurrent
        # proposal, it is re-proposed immediately instead of waiting for
        # the proposer's timeout -- essential for throughput when many
        # sites propose at once (C-Raft's global level, Fig. 5).
        self._outstanding_proposals: dict[str, LogEntry] = {}
        self._reclaims_scheduled: set[str] = set()

    # ------------------------------------------------------------------
    # Timers and role transitions
    # ------------------------------------------------------------------
    def _decision_tick(self) -> None:
        self._run_decision()
        self._retry_pending_config()
        self._maybe_complete_stepdown()

    def _stop_role_timers(self) -> None:
        super()._stop_role_timers()
        self._decision_timer.stop()
        self.possible_entries.clear()
        self.next_index.clear()
        self.match_index.clear()
        self.fast_match_index.clear()
        self._beats_missed.clear()
        self._gap_since.clear()
        self._gating_indices.clear()
        self._awaiting_commit.clear()
        self._stepdown_index = None

    # ------------------------------------------------------------------
    # Log insertion (single funnel, C-Raft's extension point)
    # ------------------------------------------------------------------
    def _insert_into_log(self, index: int, entry: LogEntry) -> int:
        """Insert with finality guards; returns the landed entry's
        structural size (0 when the guards dropped it).

        Callers charge the durable-write counter per *batch* (one fsync
        per message, matching classic Raft's accounting), so this method
        only reports the bytes a touch owes -- the size comes straight
        from the entry's ``_est_size`` memo when it is already measured,
        so the absorb loop never re-walks an entry payload.

        Finality guards: with the synchronous insert path these are
        unreachable (handlers validate slots as they insert), but
        C-Raft's insert gate defers the write behind a round of local
        consensus, and the slot can change in the meantime:
        (1) committed slots are immutable;
        (2) a self-approved insert never displaces a leader-approved
            entry (only the leader makes safe decisions, Section IV-B).
        """
        previous = self.log.get(index)
        if index <= self.commit_index:
            self._trace("insert.stale_dropped", index=index,
                        entry_id=entry.entry_id)
            return 0
        if (previous is not None
                and previous.inserted_by is InsertedBy.LEADER
                and entry.inserted_by is InsertedBy.SELF):
            self._trace("insert.superseded_dropped", index=index,
                        entry_id=entry.entry_id)
            return 0
        self.log.insert(index, entry)
        if entry.inserted_by is InsertedBy.LEADER:
            self.last_leader_index = max(self.last_leader_index, index)
        if (entry.kind is EntryKind.CONFIG
                or (previous is not None
                    and previous.kind is EntryKind.CONFIG)):
            self._refresh_configuration()
        size = entry._est_size
        return size if size is not None else estimate_size(entry)

    def _insert_batch(self, pairs: list[tuple[int, LogEntry]]) -> None:
        """Insert ``pairs`` and charge one durable log write if any
        landed (one fsync per message batch, weighted by what landed;
        the sizes accumulate during the absorb pass itself)."""
        inserted_bytes = 0
        for index, entry in pairs:
            inserted_bytes += self._insert_into_log(index, entry)
        if inserted_bytes:
            self.ctx.store.touch("log", size=inserted_bytes)

    def _gate_insert(self, pairs: list[tuple[int, LogEntry]],
                     then: Callable[[], None]) -> None:
        """Insert ``pairs`` then run ``then``. Plain Fast Raft inserts
        immediately; the C-Raft global engine overrides this to interpose
        intra-cluster consensus (Section V-B)."""
        self._insert_batch(pairs)
        then()

    # ------------------------------------------------------------------
    # Commit side effects
    # ------------------------------------------------------------------
    def _on_entry_committed(self, index: int, entry: LogEntry) -> None:
        if self.role is Role.LEADER:
            if entry.origin != self.name:
                self._notify_origin(entry, index)
            if entry.kind is EntryKind.CONFIG:
                self._finish_config_change(entry)
        self._outstanding_proposals.pop(entry.entry_id, None)
        self._reclaim_lost_proposals()

    def _reclaim_lost_proposals(self) -> None:
        """Re-propose any of our outstanding entries whose every slot is
        now below the commit index (a different entry won the race).

        With ``repropose_jitter`` set, losers back off by a random delay:
        simultaneous reclaim waves would otherwise all target the same
        next index and collide again.
        """
        if not self._outstanding_proposals:
            return  # the common case: nothing of ours is in flight
        jitter = self.timing.repropose_jitter
        highest_index_of = self.log.highest_index_of
        for entry_id, entry in list(self._outstanding_proposals.items()):
            if highest_index_of(entry_id) > self.commit_index:
                continue  # still in play at a live index
            if jitter <= 0:
                self.propose(entry)
            elif entry_id not in self._reclaims_scheduled:
                self._reclaims_scheduled.add(entry_id)
                delay = self.ctx.rng.uniform(0.0, jitter)
                self.ctx.loop.call_later(
                    delay, lambda e=entry: self._delayed_repropose(e))

    def _delayed_repropose(self, entry: LogEntry) -> None:
        self._reclaims_scheduled.discard(entry.entry_id)
        if self._stopped or entry.entry_id not in self._outstanding_proposals:
            return
        self.propose(entry)

    def _after_snapshot_install(self, snapshot) -> None:
        """The snapshot covers a committed -- hence decided -- prefix:
        floor lastLeaderIndex there and drop votes it made stale."""
        self.last_leader_index = max(self.last_leader_index,
                                     snapshot.last_included_index)
        self.possible_entries.drop_through(self.commit_index)
        if self.name in self._configuration:
            # Current-term replication from the leader supersedes any
            # earlier eviction notice (same rule as AppendEntries).
            self._evicted = False

    def _on_configuration_changed(self) -> None:
        if self.role is not Role.LEADER:
            return
        start = self.commit_index + 1
        for site in self._configuration.replicas:
            self.next_index.setdefault(site, start)
            self.match_index.setdefault(site, 0)
            self.fast_match_index.setdefault(site, 0)
