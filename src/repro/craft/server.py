"""CRaftServer: one site running both levels of C-Raft.

Responsibilities (Section V):

- run intra-cluster Fast Raft on the local log and answer local clients;
- materialize a **global-log view** from committed GLOBAL_STATE entries in
  the local log, so every cluster member holds every global entry its
  cluster has vouched for;
- while local leader: run inter-cluster Fast Raft, gating every global
  insert through local consensus, and publish batches of locally
  committed entries to the global log;
- manage global membership from local leadership: join the global
  configuration on winning the local election, announce a leave on losing
  it (silent failures are caught by the global member timeout).

Bootstrap: the global configuration starts as ``{global_seed}`` -- one
designated site that runs a global engine from startup so the first real
cluster leaders have someone to join through; the seed retires from the
global configuration as soon as another member exists (unless it is a
cluster leader itself). The paper configures its AWS deployment manually
and leaves bootstrap unspecified.

Retirement is a *demotion*, not a departure: the retired seed stays
registered as a standing **non-voting observer** that replicates the
global log but never counts toward commit quorums. While the voting set
is degenerate (two cluster leaders or fewer), the observer is promoted to
a tiebreaker for leader elections and CONFIG-entry decisions, so a
two-region deployment that loses one leader can still elect a global
leader, commit the dead leader's exclusion, and admit its successor --
the ROADMAP's "global-membership deadlock". Independently, a successor's
join names the crashed leader it replaces (``JoinRequest.replaces``), and
once caught up the successor counts toward that exclusion's quorum (see
README "Global membership liveness").

Crash recovery needs no special view logic: the view is a pure function of
the locally *applied* prefix, and on restart the local protocol re-applies
the committed prefix from stable storage, rebuilding the view, the state
machine, and the batch bookkeeping in one sweep.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Callable

from repro.consensus.config import Configuration, TransferConfig
from repro.consensus.engine import EngineContext, Role
from repro.consensus.entry import (
    EntryKind,
    GlobalStatePayload,
    InsertedBy,
    LogEntry,
)
from repro.consensus.log import RaftLog
from repro.consensus.messages import (
    ClientRequest,
    Envelope,
    JoinRequest,
    LeaveRequest,
)
from repro.consensus.timing import TimingConfig
from repro.craft.batching import Batcher, BatchPolicy
from repro.craft.global_engine import CRaftGlobalEngine
from repro.craft.local import CRaftLocalEngine
from repro.net.network import Network
from repro.sim.actor import Actor
from repro.sim.loop import SimLoop
from repro.sim.rng import RngRegistry
from repro.sim.timers import PeriodicTimer, RestartableTimer
from repro.sim.trace import TraceRecorder
from repro.smr.applied import AppliedLog, out_of_order
from repro.smr.frontend import ServingFrontend
from repro.snapshot import CompactionPolicy, Snapshot, SnapshotImage, SnapshotStore
from repro.snapshot.types import carried_config, newest
from repro.storage.stable import StorageFabric


class CRaftServer(Actor):
    """A C-Raft site."""

    def __init__(self, name: str, cluster: str, loop: SimLoop,
                 network: Network, fabric: StorageFabric,
                 local_bootstrap: Configuration, global_seed: str,
                 local_timing: TimingConfig, global_timing: TimingConfig,
                 rng: RngRegistry, trace: TraceRecorder,
                 batch_policy: BatchPolicy | None = None,
                 state_machine_factory: Callable[[], Any] | None = None,
                 local_compaction: CompactionPolicy | None = None,
                 global_compaction: CompactionPolicy | None = None,
                 transfer: TransferConfig | None = None
                 ) -> None:
        super().__init__(loop, name)
        self.cluster = cluster
        self._network = network
        self._fabric = fabric
        self._local_bootstrap = local_bootstrap
        self.global_seed = global_seed
        self._local_timing = local_timing
        self._global_timing = global_timing
        self._rng = rng
        self._trace = trace
        # Mirrors BaseEngine._tracing: per-request call sites skip
        # building their trace payloads when the recorder is off.
        self._tracing = trace.enabled
        self._batch_policy = batch_policy or BatchPolicy()
        self._sm_factory = state_machine_factory
        self._local_compaction = local_compaction
        self._global_compaction = global_compaction
        self._transfer = transfer if transfer is not None else TransferConfig()
        self._seq = itertools.count(1)
        #: The client edge; its applied-id set is the global level's.
        self.frontend = ServingFrontend(name, loop, network, trace)
        self._reset_volatile()
        self.local_engine = self._build_local_engine()
        self.global_engine: CRaftGlobalEngine | None = None
        if name == global_seed:
            self._ensure_global_engine()

    def _reset_volatile(self) -> None:
        self.global_view = RaftLog()
        self.global_commit = 0
        #: Last local leader other than this site (successor joins name
        #: it as the global member they replace).
        self._prior_local_leader: str | None = None
        #: Advisory value from the AppendEntries piggyback; never used to
        #: apply (see GlobalStatePayload.global_commit for why).
        self.global_commit_hint = 0
        self._last_replicated_commit = 0
        self._marker_check_scheduled = False
        self.global_applied_index = 0
        #: Term of the newest applied global entry (snapshot anchor).
        self.global_applied_term = 0
        #: Newest global snapshot this site has adopted or captured.
        self._global_snapshot_base: Snapshot | None = None
        #: Highest local index covered by an applied BATCH, per cluster.
        self._covered_by_cluster: dict[str, int] = {}
        #: Applied local DATA entries not yet covered by a global batch,
        #: maintained incrementally (appended on apply, pruned as batch
        #: coverage advances, seeded from a restored snapshot image) so
        #: snapshot capture and leader takeover never rescan the whole
        #: apply history.
        self._uncovered_data: list[tuple[int, LogEntry]] = []
        #: Applied global entries in order, iterating as (index, entry)
        #: pairs; its ``floor`` is the last adopted global snapshot's
        #: index, and ``global_applied_index`` is always its top.
        self.global_applied = AppliedLog()
        self.frontend.reset()
        #: (time, inner entry count) per applied batch -- throughput metric.
        self.global_apply_events: list[tuple[float, int]] = []
        self.global_state_machine = (self._sm_factory()
                                     if self._sm_factory else None)
        #: Applied local entries in order, iterating as (index, entry)
        #: pairs; its ``floor`` is the last local snapshot restore's index.
        #: Both histories refuse an apply that does not extend them by one.
        self.applied_log = AppliedLog()
        self.batcher = Batcher(self.cluster, self._batch_policy)
        self._pending_gates: dict[str, Callable[[], None] | None] = {}
        self._gate_timers: dict[str, RestartableTimer] = {}
        self._outstanding_batches: dict[str, RestartableTimer] = {}
        self._batch_tick: PeriodicTimer | None = None
        #: Precise max_age flush (armed only for age-bounded policies;
        #: the default count-only policy never allocates a timer).
        self._batch_age_timer: RestartableTimer | None = None
        #: Propose time per in-flight batch (adaptive policies only):
        #: feeds the global-commit-latency EWMA that steers the knobs.
        self._batch_proposed_at: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Engine construction
    # ------------------------------------------------------------------
    def _build_local_engine(self) -> CRaftLocalEngine:
        ctx = EngineContext(
            name=self.name, loop=self.loop, send=self._send_local_level,
            rng=self._rng.stream(f"node.{self.name}"), trace=self._trace,
            store=self._fabric.store_for(self.name),
            timing=self._local_timing, scope=self.cluster,
            on_apply=self._on_local_apply,
            on_origin_commit=self._on_local_origin_commit,
            on_role_change=self._on_local_role_change,
            on_leader_change=self._note_local_leader,
            capture_snapshot=self._capture_local_snapshot,
            on_snapshot_restore=self._restore_local_snapshot,
            compaction=self._local_compaction, transfer=self._transfer)
        return CRaftLocalEngine(ctx, self._local_bootstrap,
                                self._global_commit_now,
                                self._note_global_commit_hint)

    def _ensure_global_engine(self) -> None:
        if self.global_engine is not None:
            return
        store = self._fabric.store_for(f"{self.name}::global")
        # The global log is determined by the local log's state entries
        # (Section V-B); rebuild it from the view on every (re)creation.
        # A compacted prefix is covered by the newest global snapshot
        # (from an earlier engine life on this store, or inherited through
        # the view's gated snapshot entries) -- anchor the log there.
        base = newest(store.get(SnapshotStore.KEY),
                      self._global_snapshot_base)
        if base is not None:
            # Monotonic: writes (and charges fsync cost) only when the
            # durable resume point actually advances.
            SnapshotStore(store).save(base)
        log = RaftLog()
        if base is not None:
            log.install_snapshot(base.last_included_index,
                                 base.last_included_term)
        for index, entry in self.global_view:
            if index > log.snapshot_index:
                log.insert(index, entry)
        store.set("log", log)
        ctx = EngineContext(
            name=self.name, loop=self.loop, send=self._send_global_level,
            rng=self._rng.stream(f"node.{self.name}.global"),
            trace=self._trace, store=store, timing=self._global_timing,
            scope="global",
            on_apply=self._on_global_engine_apply,
            on_origin_commit=self._on_global_origin_commit,
            on_config_change=self._on_global_config_change,
            capture_snapshot=self._capture_global_snapshot,
            on_snapshot_restore=self._restore_global_snapshot,
            compaction=self._global_compaction, transfer=self._transfer)
        engine = CRaftGlobalEngine(
            ctx, Configuration((self.global_seed,)),
            insert_gate=self._gate_through_local_consensus,
            snapshot_gate=self._gate_global_snapshot)
        self.global_engine = engine
        if self.alive:
            engine.start()
        self._trace.record(self.now(), self.name, "craft.global_engine.up",
                           cluster=self.cluster)

    def _drop_global_engine(self) -> None:
        if self.global_engine is None:
            return
        self.global_engine.stop()
        self.global_engine = None
        for timer in self._gate_timers.values():
            timer.cancel()
        self._gate_timers.clear()
        self._pending_gates.clear()
        for timer in self._outstanding_batches.values():
            timer.cancel()
        self._outstanding_batches.clear()
        self._trace.record(self.now(), self.name, "craft.global_engine.down",
                           cluster=self.cluster)

    # ------------------------------------------------------------------
    # Transport adapters
    # ------------------------------------------------------------------
    def _send_local_level(self, dst: str, message: Any) -> None:
        self._network.send(self.name, dst,
                           Envelope("local", self.cluster, message))

    def _send_global_level(self, dst: str, message: Any) -> None:
        self._network.send(self.name, dst,
                           Envelope("global", "global", message))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.local_engine.start()
        if self.global_engine is not None:
            self.global_engine.start()
        self._batch_tick = PeriodicTimer(
            self.loop, self._local_timing.heartbeat_interval,
            self._maybe_propose_batch)
        self._batch_tick.start()

    def crash(self) -> None:
        self.local_engine.stop()
        self._drop_global_engine()
        if self._batch_tick is not None:
            self._batch_tick.stop()
        if self._batch_age_timer is not None:
            self._batch_age_timer.cancel()
        self.kill()

    def recover(self) -> None:
        """Restart from stable storage. The local engine re-applies the
        committed prefix, which rebuilds the view/state machine/batcher."""
        self._reset_volatile()
        self.local_engine = self._build_local_engine()
        self.revive()
        self.local_engine.start()
        # Probe-before-trust: the restored local configuration may be
        # older than the member timeout (evicted while down). The global
        # level needs no probe -- global seats follow local leadership
        # (_became_local_leader re-joins with a seat hint).
        self.local_engine.begin_recovery_probe()
        if self.name == self.global_seed:
            # The seed's global engine (voter at bootstrap, standing
            # observer after retirement) survives crashes: recreate it
            # from its own stable store, mirroring construction.
            self._ensure_global_engine()
        self._batch_tick = PeriodicTimer(
            self.loop, self._local_timing.heartbeat_interval,
            self._maybe_propose_batch)
        self._batch_tick.start()
        self._trace.record(self.now(), self.name, "node.recovered")

    # ------------------------------------------------------------------
    # Message routing
    # ------------------------------------------------------------------
    def on_message(self, message: Any, sender: str) -> None:
        # Per-class routing: C-Raft's wire alphabet at this layer is two
        # final classes (Envelope for all consensus traffic, ClientRequest
        # from clients), so exact-type tests replace the isinstance walk;
        # Envelope first because steady-state traffic is all envelopes.
        message_type = type(message)
        if message_type is Envelope:
            # Level/scope routing of consensus traffic.
            level, inner = message.level, message.inner
            if level == "local":
                if message.scope == self.cluster:
                    self.local_engine.handle(inner, sender)
            elif level == "global":
                if self.global_engine is not None:
                    self.global_engine.handle(inner, sender)
                else:
                    self._relay_global_without_engine(inner, sender)
            return
        if message_type is ClientRequest:
            if self.frontend.admit(message, sender):
                self.local_engine.handle(message, sender)
        # else: stray unwrapped message; C-Raft traffic is enveloped

    @property
    def session_duplicates(self) -> int:
        """Retried requests answered from the session table (metrics)."""
        return self.frontend.session_duplicates

    def _relay_global_without_engine(self, inner: Any, sender: str) -> None:
        """This site no longer runs a global engine (e.g. the retired
        bootstrap seed), but its view may still know the current global
        members; forward join requests there so late-joining cluster
        leaders are not stranded on a stale contact."""
        if not isinstance(inner, JoinRequest):
            return
        # The view's CONFIG entries may have been compacted away by view
        # pruning; the snapshot base still carries the governing
        # membership, so resolve between the two exactly as snapshot
        # capture does. (Found by the migrated-region scenario: a late
        # region's join was silently dropped at the retired seed once
        # every CONFIG entry fell below the prune point.)
        view = self.global_view
        _, members, __ = view.config_at(
            view.last_index + 1, view.last_index,
            carried_config(self._global_snapshot_base))
        if not members:
            return
        for member in members:
            if member not in (self.name, sender):
                self._send_global_level(member, inner)

    # ------------------------------------------------------------------
    # The insert gate (Section V-B)
    # ------------------------------------------------------------------
    def _gate_through_local_consensus(
            self, pairs: list[tuple[int, LogEntry]],
            then: Callable[[], None] | None = None,
            snapshot: Snapshot | None = None) -> None:
        """Commit a GLOBAL_STATE entry locally, then run ``then`` (if
        any: a bare commit marker has nothing to continue)."""
        entry_id = f"{self.name}:gstate.{next(self._seq)}.{self.now():.4f}"
        payload = GlobalStatePayload(inserts=tuple(pairs),
                                     global_commit=self.global_commit,
                                     snapshot=snapshot)
        self._last_replicated_commit = max(self._last_replicated_commit,
                                           self.global_commit)
        entry = LogEntry(entry_id=entry_id, kind=EntryKind.GLOBAL_STATE,
                         payload=payload, origin=self.name, term=0,
                         inserted_by=InsertedBy.SELF)
        self._pending_gates[entry_id] = then
        if self._tracing:
            self._trace.record(self.now(), self.name, "craft.gate.open",
                               entry_id=entry_id,
                               indices=[i for i, _ in pairs],
                               snapshot=(snapshot.last_included_index
                                         if snapshot is not None else None))
        self.local_engine.propose(entry)
        timer = RestartableTimer(
            self.loop, partial(self._retry_gate, entry_id, entry))
        timer.reset(self._local_timing.proposal_timeout)
        self._gate_timers[entry_id] = timer

    def _retry_gate(self, entry_id: str, entry: LogEntry) -> None:
        if entry_id not in self._pending_gates:
            return
        self.local_engine.propose(entry)
        self._gate_timers[entry_id].reset(self._local_timing.proposal_timeout)

    def _complete_gate(self, entry_id: str) -> None:
        timer = self._gate_timers.pop(entry_id, None)
        if timer is not None:
            timer.cancel()
        if entry_id not in self._pending_gates:
            return
        then = self._pending_gates.pop(entry_id)
        if self._tracing:
            self._trace.record(self.now(), self.name,
                               "craft.gate.closed", entry_id=entry_id)
        if then is not None:
            then()

    # ------------------------------------------------------------------
    # Local-level callbacks
    # ------------------------------------------------------------------
    def _on_local_apply(self, index: int, entry: LogEntry) -> None:
        applied = self.applied_log
        if index != applied.floor + len(applied.entries) + 1:
            raise out_of_order(self.name, index, applied.floor,
                               len(applied.entries))
        applied.entries.append(entry)
        if entry.kind is EntryKind.DATA:
            self._uncovered_data.append((index, entry))
            self.frontend.observe(entry.entry_id, index)
            # Fused observe+readiness check: one Batcher call per applied
            # entry instead of two, and the (role, membership, take)
            # pipeline in _maybe_propose_batch runs only when a batch can
            # actually form (_maybe_propose_batch is a no-op whenever
            # ready() is False).
            if self.batcher.observe_and_check(index, entry, self.now()):
                self._maybe_propose_batch()
            elif self.batcher.has_age_flush:
                self._arm_batch_age_timer()
        elif entry.kind is EntryKind.GLOBAL_STATE:
            if entry.payload.snapshot is not None:
                # A gated global snapshot: every cluster member inherits
                # the image, exactly like gated inserts.
                self._adopt_global_snapshot(entry.payload.snapshot)
            for gindex, gentry in entry.payload.inserts:
                self._view_insert(gindex, gentry)
            # Effective global commit advances only here (local-log order
            # guarantees every corrective insert below it arrived first).
            if entry.payload.global_commit > self.global_commit:
                self.global_commit = entry.payload.global_commit
            self._advance_global_apply()
            self._complete_gate(entry.entry_id)

    def _arm_batch_age_timer(self) -> None:
        """Schedule the pending batch's age flush for exactly when it
        falls due, instead of waiting for the next heartbeat-period tick
        (which added up to a full heartbeat of avoidable latency)."""
        deadline = self.batcher.age_deadline()
        if deadline is None:
            return
        if self._batch_age_timer is None:
            self._batch_age_timer = RestartableTimer(
                self.loop, self._on_batch_age_timeout)
        self._batch_age_timer.reset(max(0.0, deadline - self.now()))

    def _on_batch_age_timeout(self) -> None:
        if self.alive:
            self._maybe_propose_batch()

    def _view_insert(self, gindex: int, gentry: LogEntry) -> None:
        """Materialize one global entry, with the same finality guards as
        the engine's log: state entries usually commit locally in creation
        order, but one that lost its local slot and was retried can land
        *after* its corrective successor -- its content must then lose.
        """
        if gindex <= self.global_applied_index:
            return  # applied entries are final
        existing = self.global_view.get(gindex)
        if existing is not None:
            if (existing.inserted_by is InsertedBy.LEADER
                    and gentry.inserted_by is InsertedBy.SELF):
                return  # tentative insert never displaces a decided one
            if (existing.inserted_by is InsertedBy.LEADER
                    and gentry.inserted_by is InsertedBy.LEADER
                    and gentry.term < existing.term):
                return  # stale decision from a deposed global leader
        self.global_view.insert(gindex, gentry)

    def _on_local_origin_commit(self, entry: LogEntry, index: int) -> None:
        if entry.kind is EntryKind.DATA:
            self.frontend.reply_committed(entry.entry_id, index)

    def _on_local_role_change(self, role: Role) -> None:
        if role is Role.LEADER:
            self._became_local_leader()
        else:
            self._lost_local_leadership()

    def _note_local_leader(self, leader: str | None) -> None:
        """Local-engine leader hint: remember the last leader that was
        not this site, so a takeover's global join can name the member
        whose seat it claims (the exclusion-quorum rule)."""
        if leader is not None and leader != self.name:
            self._prior_local_leader = leader

    def _became_local_leader(self) -> None:
        covered = self._covered_by_cluster.get(self.cluster, 0)
        self.batcher.rebuild(self._uncovered_data, covered + 1, self.now())
        if self.batcher.has_age_flush:
            self._arm_batch_age_timer()
        self._ensure_global_engine()
        replaces = (self._prior_local_leader
                    if self._prior_local_leader != self.name else None)
        self.global_engine.seek_membership(replaces=replaces)
        self._trace.record(self.now(), self.name, "craft.local_leader",
                           cluster=self.cluster,
                           next_unbatched=self.batcher.next_unbatched)

    def _lost_local_leadership(self) -> None:
        engine = self.global_engine
        if engine is None:
            return
        engine.wants_membership = False
        engine.join_replaces = None
        if self.name in engine.configuration:
            # Announce the departure; the global member timeout covers
            # the case where this message is lost. The bootstrap seed
            # retires into a standing observer instead of leaving.
            leave = LeaveRequest(site=self.name,
                                 as_observer=(self.name == self.global_seed))
            for member in engine.configuration.others(self.name):
                self._send_global_level(member, leave)
        elif self.name not in engine.configuration.observers:
            self._drop_global_engine()

    # ------------------------------------------------------------------
    # Global-level callbacks
    # ------------------------------------------------------------------
    def _global_commit_now(self) -> int:
        return self.global_commit

    def _note_global_commit_hint(self, global_commit: int) -> None:
        if global_commit > self.global_commit_hint:
            self.global_commit_hint = global_commit

    def _on_global_engine_apply(self, gindex: int, gentry: LogEntry) -> None:
        # At a global member the engine's own commit advance is safe to
        # apply directly: its log (and therefore the view, which the gate
        # fills first) already holds the final entry.
        if gindex > self.global_commit:
            self.global_commit = gindex
            self._advance_global_apply()
            if not self._marker_check_scheduled:
                self._marker_check_scheduled = True
                self.loop.call_soon(self._maybe_propose_commit_marker)

    def _maybe_propose_commit_marker(self) -> None:
        """Replicate a bare global-commit advance to the cluster when no
        gated insert carried (or will carry) it."""
        self._marker_check_scheduled = False
        if not self.alive or self.local_engine.role is not Role.LEADER:
            return
        if self.global_commit <= self._last_replicated_commit:
            return
        self._gate_through_local_consensus([])

    def _on_global_origin_commit(self, entry: LogEntry, gindex: int) -> None:
        if entry.kind is EntryKind.BATCH:
            self._batch_settled(entry.entry_id)

    def _on_global_config_change(self, config: Configuration) -> None:
        if self.global_engine is None:
            return
        am_member = self.name in config
        local_leader = self.local_engine.role is Role.LEADER
        if not am_member and not local_leader:
            if self.name not in config.observers:
                self._drop_global_engine()
            # A standing observer keeps its engine: it replicates the
            # global log and serves as the degenerate-config tiebreaker.
            return
        if (am_member and not local_leader and config.size > 1
                and self.name == self.global_seed):
            # Seed retirement: a real cluster leader has joined. Demote
            # to a standing non-voting observer rather than leaving, so
            # a two-leader voting set keeps a tiebreaker.
            leave = LeaveRequest(site=self.name, as_observer=True)
            for member in config.others(self.name):
                self._send_global_level(member, leave)

    # ------------------------------------------------------------------
    # Global apply (every site, through the view)
    # ------------------------------------------------------------------
    def _advance_global_apply(self) -> None:
        while self.global_applied_index < self.global_commit:
            nxt = self.global_applied_index + 1
            gentry = self.global_view.get(nxt)
            if gentry is None:
                break  # wait for the state entry carrying it
            applied = self.global_applied
            if nxt != applied.floor + len(applied.entries) + 1:
                raise out_of_order(self.name, nxt, applied.floor,
                                   len(applied.entries))
            self.global_applied_index = nxt
            self.global_applied_term = gentry.term
            applied.entries.append(gentry)
            if gentry.kind is EntryKind.BATCH:
                self._apply_batch(gentry)

    def _apply_batch(self, gentry: LogEntry) -> None:
        payload = gentry.payload
        applied = 0
        apply_once = self.frontend.apply_once
        for inner in payload.entries:
            # Index 0 (slot unknown): the entry may come from another
            # cluster. Observing it still lets a session client that
            # re-attaches to another region after failover be deduped.
            if not apply_once(inner.entry_id, 0):
                continue
            applied += 1
            if self.global_state_machine is not None:
                self.global_state_machine.apply(inner.payload)
        self.global_apply_events.append((self.now(), applied))
        self._covered_by_cluster[payload.cluster] = max(
            self._covered_by_cluster.get(payload.cluster, 0),
            payload.local_range[1])
        if payload.cluster == self.cluster:
            self.batcher.advance_covered(payload.local_range[1])
            self._prune_uncovered_data()
            self._batch_settled(gentry.entry_id)

    # ------------------------------------------------------------------
    # Snapshots (Section V meets log compaction)
    # ------------------------------------------------------------------
    def _capture_local_snapshot(self) -> SnapshotImage:
        """The local-level snapshot image is a composite: the local log's
        GLOBAL_STATE entries materialize the global view, so compacting
        the local log must carry (a) the global state as of the capture
        point, (b) the still-unapplied view tail, and (c) the local DATA
        entries no global batch has covered yet (a future local leader
        must still be able to batch them)."""
        view_tail = tuple((i, e) for i, e in self.global_view
                          if i > self.global_applied_index)
        self._prune_uncovered_data()
        global_image = self._current_global_snapshot()
        state = {"global": global_image,
                 "view": view_tail,
                 "unbatched": tuple(self._uncovered_data)}
        if global_image is not None:
            # The composite image just captured the applied global prefix,
            # so the materialized view below that point is now redundant:
            # prune it here, not only on snapshot *adoption* -- a site
            # that compacts locally but never restores would otherwise
            # hold its full global history in memory forever.
            self._global_snapshot_base = newest(self._global_snapshot_base,
                                                global_image)
            self.global_view.install_snapshot(
                global_image.last_included_index,
                global_image.last_included_term)
        return SnapshotImage(machine_state=state, applied_ids=())

    def _restore_local_snapshot(self, snapshot: Snapshot) -> None:
        """Adopt a local-level snapshot (recovery from a compacted local
        log, or a live InstallSnapshot from the local leader)."""
        state = snapshot.machine_state or {}
        if state.get("global") is not None:
            self._adopt_global_snapshot(state["global"])
        for gindex, gentry in state.get("view", ()):
            self._view_insert(gindex, gentry)
        self._uncovered_data = [
            (i, e) for i, e in state.get("unbatched", ())]
        self.applied_log = AppliedLog(snapshot.last_included_index)
        self._advance_global_apply()
        self._trace.record(self.now(), self.name, "craft.snapshot_restored",
                           level="local", index=snapshot.last_included_index)

    def _capture_global_snapshot(self) -> SnapshotImage:
        """The global engine's snapshot image: the global machine plus
        per-cluster batch coverage (so restored sites neither re-batch
        nor re-apply covered entries)."""
        machine = (self.global_state_machine.snapshot()
                   if self.global_state_machine is not None else None)
        return SnapshotImage(
            machine_state={"machine": machine,
                           "covered": dict(self._covered_by_cluster)},
            applied_ids=tuple(sorted(self.frontend.applied_ids)))

    def _restore_global_snapshot(self, snapshot: Snapshot) -> None:
        self._adopt_global_snapshot(snapshot)

    def _adopt_global_snapshot(self, snapshot: Snapshot) -> None:
        """Fast-forward this site's global state to a snapshot image (a
        no-op when the site is already past it)."""
        self._global_snapshot_base = newest(self._global_snapshot_base,
                                            snapshot)
        if snapshot.last_included_index <= self.global_applied_index:
            return
        state = snapshot.machine_state or {}
        if self._sm_factory is not None:
            self.global_state_machine = self._sm_factory()
            if state.get("machine") is not None:
                self.global_state_machine.restore(state["machine"])
        self.frontend.restore(snapshot.applied_ids)
        self.global_applied_index = snapshot.last_included_index
        self.global_applied_term = snapshot.last_included_term
        self.global_applied = AppliedLog(snapshot.last_included_index)
        if snapshot.last_included_index > self.global_commit:
            self.global_commit = snapshot.last_included_index
        for cluster, through in (state.get("covered") or {}).items():
            self._covered_by_cluster[cluster] = max(
                self._covered_by_cluster.get(cluster, 0), through)
        self.global_view.install_snapshot(snapshot.last_included_index,
                                          snapshot.last_included_term)
        self.batcher.advance_covered(
            self._covered_by_cluster.get(self.cluster, 0))
        self._prune_uncovered_data()
        self._trace.record(self.now(), self.name, "craft.snapshot_restored",
                           level="global",
                           index=snapshot.last_included_index)
        self._advance_global_apply()

    def _current_global_snapshot(self) -> Snapshot | None:
        """A Snapshot of the global level as this site has applied it
        (for nesting into local-level snapshots); None until something
        global applied. (Adopting a base always advances the applied
        index too, so the base is necessarily None in this branch.)"""
        if self.global_applied_index == 0:
            return self._global_snapshot_base
        applied = self.global_applied_index
        version, members, observers = self.global_view.config_at(
            applied + 1, applied, carried_config(self._global_snapshot_base))
        image = self._capture_global_snapshot()
        return Snapshot(
            last_included_index=self.global_applied_index,
            last_included_term=self.global_applied_term,
            machine_state=image.machine_state,
            applied_ids=image.applied_ids,
            config_members=members, config_version=version,
            config_observers=observers,
            taken_at=self.now(), origin=self.name)

    def _prune_uncovered_data(self) -> None:
        """Drop entries once global batches cover them, so long-lived
        servers never re-scan the full apply history."""
        if not self._uncovered_data:
            return
        covered = self._covered_by_cluster.get(self.cluster, 0)
        self._uncovered_data = [
            (i, e) for i, e in self._uncovered_data if i > covered]

    def _gate_global_snapshot(self, snapshot: Snapshot,
                              then: Callable[[], None]) -> None:
        """Replicate a leader-shipped global snapshot through local
        consensus before the global engine adopts it (the cluster-wide
        analogue of the gated insert)."""
        self._gate_through_local_consensus([], then, snapshot=snapshot)

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------
    def _maybe_propose_batch(self) -> None:
        if self.local_engine.role is not Role.LEADER:
            return
        engine = self.global_engine
        if engine is None or not engine.is_member:
            return
        if not self.batcher.ready(self.now()):
            return
        payload = self.batcher.take_batch(self.now())
        entry = LogEntry(
            entry_id=(f"{self.name}:batch.{self.cluster}."
                      f"{payload.sequence}.{self.now():.4f}"),
            kind=EntryKind.BATCH, payload=payload, origin=self.name,
            term=0, inserted_by=InsertedBy.SELF)
        if self._tracing:
            self._trace.record(self.now(), self.name, "craft.batch.proposed",
                               sequence=payload.sequence, size=len(payload),
                               local_range=payload.local_range)
        timer = RestartableTimer(
            self.loop, partial(self._retry_batch, entry))
        timer.reset(self._global_timing.proposal_timeout)
        self._outstanding_batches[entry.entry_id] = timer
        if self._batch_policy.adaptive:
            self._batch_proposed_at[entry.entry_id] = self.now()
        engine.propose(entry)
        if self.batcher.has_age_flush:
            self._arm_batch_age_timer()

    def _retry_batch(self, entry: LogEntry) -> None:
        timer = self._outstanding_batches.get(entry.entry_id)
        if timer is None:
            return
        engine = self.global_engine
        if engine is None:
            return
        engine.propose(entry)
        timer.reset(self._global_timing.proposal_timeout)

    def _batch_settled(self, entry_id: str) -> None:
        timer = self._outstanding_batches.pop(entry_id, None)
        if timer is None:
            return
        timer.cancel()
        if self._batch_policy.adaptive:
            proposed = self._batch_proposed_at.pop(entry_id, None)
            if proposed is not None:
                # Propose -> global origin-commit (or batch apply,
                # whichever is seen first): the latency signal that
                # steers the adaptive knobs.
                self.batcher.observe_commit_latency(self.now() - proposed)
        self.batcher.batch_done()
        self._maybe_propose_batch()
