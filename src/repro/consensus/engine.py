"""Shared consensus-engine machinery.

An *engine* is a transport-agnostic protocol state machine: it never
touches the network directly, only an injected ``send`` callable and the
simulation loop for timers. This is what lets C-Raft run one engine for
intra-cluster consensus and a second engine for inter-cluster consensus
inside the same site, exactly as the paper layers Fast Raft on Fast Raft.

:class:`BaseEngine` implements everything classic Raft and Fast Raft
share: persistent term/vote handling, role transitions, election timers
and vote counting, configuration tracking from the log, commit-index
advancement with ordered apply callbacks, the configuration-membership
gate ("Messages from sites not listed in the configuration are ignored"),
snapshot shipping, and Raft's AppendEntries replication -- the leader's
beat, its nextIndex/matchIndex bookkeeping on acks, the follower's term
check, consistency check and ack, the commit point, and the serialized
config-change queue. Fast Raft runs that same path as its classic track
(Section IV-B); each engine supplies only its replication frontier,
commit step, consistency check and absorb step. Only Fast Raft changes
membership (and drives the queue): classic Raft, the paper's
fixed-membership baseline, keeps its bootstrap configuration.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.consensus.config import Configuration, TransferConfig
from repro.consensus.entry import EntryKind, LogEntry
from repro.consensus.log import ConfigTriple, RaftLog
from repro.consensus.messages import (
    AppendEntries,
    AppendEntriesResponse,
    ClientRequest,
    CommitNotice,
    InstallSnapshotChunk,
    InstallSnapshotChunkAck,
    InstallSnapshotRequest,
    InstallSnapshotResponse,
    JoinAccepted,
    JoinRequest,
    LeaveAccepted,
    LeaveRequest,
    NotInConfiguration,
    ProposeEntry,
    ProposeToLeader,
    RecoveryProbe,
    RecoveryProbeReply,
    RequestVote,
    RequestVoteResponse,
    VoteEntry,
)
from repro.consensus.quorum import classic_reached, wins_election
from repro.consensus.timing import TimingConfig
from repro.errors import ConsensusError
from repro.net.sizes import estimate_size
from repro.sim.loop import SimLoop
from repro.sim.timers import PeriodicTimer, RestartableTimer, randomized_timeout
from repro.sim.trace import TraceRecorder
from repro.snapshot import CompactionPolicy, Snapshot, SnapshotImage, SnapshotStore
from repro.snapshot.chunking import (
    ChunkAssembler,
    SnapshotSender,
    deserialize_snapshot,
    serialize_snapshot,
)
from repro.snapshot.types import carried_config
from repro.storage.stable import StableStore


class Role(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


@dataclass
class EngineContext:
    """Everything an engine needs from its host site."""

    name: str
    loop: SimLoop
    send: Callable[[str, Any], None]
    rng: random.Random
    trace: TraceRecorder
    store: StableStore
    timing: TimingConfig
    #: Disambiguates engines in traces when one site runs several (C-Raft
    #: runs one per level: the cluster name locally, "global" above).
    scope: str = "main"
    #: Called for every committed entry, in log order.
    on_apply: Callable[[int, LogEntry], None] = lambda index, entry: None
    #: Called when an entry originated by this site commits (client reply
    #: path). May fire more than once per entry id; receivers dedup.
    on_origin_commit: Callable[[LogEntry, int], None] = lambda entry, index: None
    #: Called after every role transition (C-Raft reacts to local
    #: leadership changes by joining/leaving the global configuration).
    on_role_change: Callable[["Role"], None] = lambda role: None
    #: Called whenever the engine's known leader changes (C-Raft tracks
    #: the previous local leader so a successor's global join can name
    #: the member it replaces).
    on_leader_change: Callable[[str | None], None] = lambda leader: None
    #: Called when the engine adopts a new configuration.
    on_config_change: Callable[[Configuration], None] = lambda config: None
    #: Snapshotting. ``capture_snapshot`` returns the host's contribution
    #: to a snapshot (machine image + applied ids); ``None`` disables
    #: engine-driven snapshots even when a compaction policy is set.
    capture_snapshot: Callable[[], SnapshotImage] | None = None
    #: Called when a snapshot replaces the compacted prefix (recovery
    #: from a compacted log, or an InstallSnapshot from the leader); the
    #: host must rebuild its state machine from the image.
    on_snapshot_restore: Callable[[Snapshot], None] = lambda snapshot: None
    #: When to compact; None disables compaction.
    compaction: CompactionPolicy | None = None
    #: How snapshots travel (monolithic vs chunked; see TransferConfig).
    transfer: TransferConfig = field(default_factory=TransferConfig)


#: Message types consensus-gated on sender membership. Messages are
#: final classes, so exact-type membership (one hash lookup per
#: delivered message) is equivalent to an isinstance walk.
_GATED_TYPE_SET = frozenset({
    AppendEntries, AppendEntriesResponse, RequestVote,
    RequestVoteResponse, VoteEntry, ProposeEntry, ProposeToLeader,
    InstallSnapshotRequest, InstallSnapshotResponse,
    InstallSnapshotChunk, InstallSnapshotChunkAck})

#: Catch-up traffic a non-member accepts from anyone (see the gate).
_CATCHUP_OPEN_SET = frozenset({AppendEntries, InstallSnapshotRequest,
                               InstallSnapshotChunk})


def handles(*message_types: type) -> Callable:
    """Mark an engine method as the handler for ``message_types``.

    The marks form a per-class registry: :func:`resolve_dispatch_table`
    walks a class's MRO once at class-definition time and produces the
    ``type(message) -> handler`` table :meth:`BaseEngine.handle` consults,
    so steady-state traffic pays a single dict lookup. Overriding a
    marked method by name in a subclass re-points the entry automatically
    (resolution goes through ``getattr`` on the concrete class); the
    decorator is only needed again to claim *additional* message types.
    """
    def mark(fn: Callable) -> Callable:
        fn._handles_types = message_types
        return fn
    return mark


def resolve_dispatch_table(cls: type) -> dict[type, Callable[..., None]]:
    """Build ``cls``'s message-dispatch table from the ``@handles`` marks.

    Returns plain functions (called as ``handler(self, message, sender)``)
    rather than bound methods: the table is shared by every instance of
    the class, resolved exactly once when the class is defined.
    """
    names: dict[type, str] = {}
    for klass in reversed(cls.__mro__):
        for name, attr in vars(klass).items():
            for message_type in getattr(attr, "_handles_types", ()):
                names[message_type] = name
    return {message_type: getattr(cls, name)
            for message_type, name in names.items()}


class BaseEngine:
    """Common state and behaviour for the Raft-family engines."""

    #: Subclasses set this for traces/metrics ("raft", "fastraft", ...).
    protocol_name = "base"

    #: ``type(message) -> handler function`` resolved from the
    #: ``@handles`` marks. Rebuilt for every subclass (below) so mixin
    #: and subclass overrides land in the concrete class's table;
    #: BaseEngine's own table is resolved after the class body.
    _DISPATCH_TABLE: dict[type, Callable[..., None]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._DISPATCH_TABLE = resolve_dispatch_table(cls)

    def __init__(self, ctx: EngineContext,
                 bootstrap_config: Configuration) -> None:
        self.ctx = ctx
        #: The host site's name and the loop's clock: read on every
        #: delivered message, so plain attributes, fixed here. (``now``
        #: is a bound *Python* method, which ``mc``'s deep-copying fork
        #: rebinds to the copied loop; see ``sim/actor.py``.)
        self.name: str = ctx.name
        self.now: Callable[[], float] = ctx.loop.now
        self.timing = ctx.timing
        # Every outbound message goes straight to the injected transport.
        self._send: Callable[[str, Any], None] = ctx.send
        # Tracing is fixed at recorder construction; cache the flag so
        # per-event call sites can skip building trace payload kwargs.
        self._tracing = ctx.trace.enabled
        # --- persistent state (survives crashes via the stable store) ---
        store = ctx.store
        self.log: RaftLog = store.get("log")
        if self.log is None:
            self.log = RaftLog()
            store.set("log", self.log)
        if "bootstrap_config" not in store:
            store.set("bootstrap_config", bootstrap_config)
        self._bootstrap_config: Configuration = store.get("bootstrap_config")
        self.current_term: int = store.get("current_term", 0)
        self.voted_for: str | None = store.get("voted_for", None)
        # --- snapshots / compaction ---
        self.snapshot_store = SnapshotStore(store)
        self.compaction = ctx.compaction
        self.transfer = ctx.transfer
        self.snapshots_taken = 0
        self.snapshots_installed = 0
        self.snapshots_shipped = 0
        self.snapshot_chunks_sent = 0
        self.entries_compacted = 0
        # Recovery-probe outcomes (probe-before-trust handshake, see
        # begin_recovery_probe).
        self.recovery_probes_confirmed = 0
        self.recovery_probes_rejected = 0
        self.recovery_probes_timeout = 0
        # target -> (snapshot index, send time): a snapshot is a bulk
        # transfer, so unlike AppendEntries it is not re-sent every
        # heartbeat while unanswered.
        self._snapshot_inflight: dict[str, tuple[int, float]] = {}
        # Chunked-mode leader state: target -> in-progress transfer.
        self._chunk_senders: dict[str, SnapshotSender] = {}
        # Chunked-mode follower state: at most one reassembly buffer (a
        # newer snapshot or a term change discards a partial transfer).
        self._chunk_assembler: ChunkAssembler | None = None
        # Receiver side: index of an install still working through an
        # asynchronous gate (C-Raft replicates the image via local
        # consensus first); duplicate requests it covers are dropped.
        self._install_pending: int | None = None
        # --- volatile state ---
        self.commit_index = 0
        self.role = Role.FOLLOWER
        self._leader_id: str | None = None
        self._votes_received: set[str] = set()
        # --- leader volatile state (rebuilt by _init_leader_state) ---
        self.next_index: dict[str, int] = {}
        self.match_index: dict[str, int] = {}
        self._heartbeat = PeriodicTimer(ctx.loop,
                                        self.timing.heartbeat_interval,
                                        self._broadcast_append_entries)
        # --- membership bookkeeping (leader only) ---
        self._catchup_targets: set[str] = set()
        self._pending_config: dict[str, Any] | None = None
        self._config_queue: list[dict[str, Any]] = []
        self._internal_seq = 0
        persisted = self.snapshot_store.latest
        if persisted is not None:
            # Recovery with a compacted log: the snapshot stands in for
            # the prefix it swallowed -- resume commitIndex there and hand
            # the image to the host before replaying the retained tail.
            self.commit_index = persisted.last_included_index
            ctx.on_snapshot_restore(persisted)
        __, members, observers = self.log.config_at(
            self.log.last_index + 1, self.commit_index, self._config_base())
        self._configuration = Configuration(members, observers)
        # Extra senders whose consensus messages are accepted although they
        # are not configuration members (the leader's catch-up targets).
        self._extra_allowed: set[str] = set()
        # Sender-gate fast set: self + members + observers, rebuilt on
        # every configuration adoption so the per-message gate is one
        # frozenset lookup instead of a Configuration method call plus
        # tuple scans (_extra_allowed stays separate -- it mutates on
        # catch-up paths and is already a plain set).
        self._gate_senders: frozenset[str] = frozenset()
        self._rebuild_gate_senders()
        self._election_timer = RestartableTimer(ctx.loop,
                                                self._on_election_timeout)
        # Probe-before-trust recovery (see begin_recovery_probe): armed
        # only by a host-driven recovery, never during normal operation.
        self._recovery_probe_timer = RestartableTimer(
            ctx.loop, self._on_recovery_probe_timeout)
        self._recovering = False
        self._stopped = False
        # --- leader leases (linearizable local reads; inert while
        # --- timing.lease_duration == 0, the default) ---
        #: Fixed at construction (the server's read path checks it per
        #: read).
        self.lease_enabled = self.timing.lease_duration > 0
        #: follower -> send time of the newest beat it acked. The lease
        #: renews from beat *send* times a quorum provably answered.
        self._lease_acks: dict[str, float] = {}
        #: What the current leader last advertised to us; an active
        #: lease suppresses our election votes for other candidates
        #: (that refusal is what makes the lease a real guarantee).
        self._follower_lease_until = 0.0
        #: Server-installed hook fired on every lease-carrying beat:
        #: ``hook(sent_at, leader_commit, lease_until)``. Follower lease
        #: reads drain against it.
        self.on_lease_beat: Any = None
        #: The global commitIndex a C-Raft local leader piggybacks on
        #: its AppendEntries (Section V-B; CRaftLocalEngine passes it to
        #: its constructor); unset, the field carries 0.
        self.global_commit_provider: Callable[[], int] | None = None

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    # ``configuration`` and ``leader_id`` are the public surface; the
    # engines' own code reads ``_configuration`` / ``_leader_id`` (a
    # property costs an interpreter frame per read) and writes
    # ``leader_id`` through the setter, for its ``on_leader_change``.
    @property
    def configuration(self) -> Configuration:
        return self._configuration

    @property
    def leader_id(self) -> str | None:
        return self._leader_id

    @leader_id.setter
    def leader_id(self, value: str | None) -> None:
        if value != self._leader_id:
            self._leader_id = value
            self.ctx.on_leader_change(value)

    @property
    def is_member(self) -> bool:
        return self.name in self._configuration

    def _trace(self, category: str, **payload: Any) -> None:
        # Check before formatting: with tracing disabled (the benchmark
        # configuration) the f-string and record call would still cost
        # real time on the hottest engine paths.
        trace = self.ctx.trace
        if trace.enabled:
            trace.record(self.now(), self.name,
                         f"{self.protocol_name}.{category}",
                         scope=self.ctx.scope, **payload)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin operating as a follower."""
        self._stopped = False
        self._trace("start", term=self.current_term,
                    members=self._configuration.members)
        self._arm_election_timer()

    def stop(self) -> None:
        """Cancel all timers (crash or shutdown). State is preserved."""
        self._stopped = True
        self._election_timer.cancel()
        self._recovery_probe_timer.cancel()
        self._recovering = False
        self._stop_role_timers()

    def _stop_role_timers(self) -> None:
        """Cancel the heartbeat and drop leader-only membership state;
        Fast Raft extends."""
        self._heartbeat.stop()
        self._catchup_targets.clear()
        self._extra_allowed.clear()
        self._pending_config = None
        self._config_queue.clear()

    # ------------------------------------------------------------------
    # Persistence helpers
    # ------------------------------------------------------------------
    def _persist_term_vote(self) -> None:
        self.ctx.store.set("current_term", self.current_term)
        self.ctx.store.set("voted_for", self.voted_for)

    def _config_base(self) -> ConfigTriple:
        """The base :meth:`RaftLog.config_at` weighs this log against:
        the configuration the latest snapshot carries, else the bootstrap
        one at version 0 (which any CONFIG entry outranks: the log wins
        ties)."""
        base = carried_config(self.snapshot_store.latest)
        if base[1] is None:
            boot = self._bootstrap_config
            return 0, boot.members, boot.observers
        return base

    def _max_known_config_version(self) -> int:
        """Highest configuration version in the log *or* swallowed by the
        snapshot (compaction must not reset version numbering)."""
        snapshot = self.snapshot_store.latest
        base = snapshot.config_version if snapshot is not None else 0
        return max(self.log.max_config_version(), base)

    def _refresh_configuration(self) -> None:
        """Adopt the configuration in force for the next index to
        decide, when it differs from the adopted one."""
        __, members, observers = self.log.config_at(
            self.log.last_index + 1, self.commit_index, self._config_base())
        new_config = Configuration(members, observers)
        if new_config != self._configuration:
            previous = self._configuration
            self._configuration = new_config
            self._rebuild_gate_senders()
            self._trace("config.adopt", members=new_config.members,
                        observers=new_config.observers)
            if (self.name in previous.observers
                    and self.name in new_config.members):
                # Observer-to-voter promotion changes the governing
                # config mid-stream: a partially assembled snapshot
                # transfer was addressed to the old role and could carry
                # a pre-promotion configuration -- discard it and let the
                # leader restart the ship, like a term bump does.
                self._discard_partial_transfer("promoted")
            self._on_configuration_changed()
            self.ctx.on_config_change(new_config)

    def _on_configuration_changed(self) -> None:
        """Hook: Fast Raft's leader extends its per-replica state here. A
        classic Raft configuration never changes, so the default is
        empty."""

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def handle(self, message: Any, sender: str) -> None:
        """Entry point for every delivered message.

        Flat dispatch: one type-set membership check for the sender gate
        and one dict lookup in the class-level ``@handles`` table.
        """
        if self._stopped:
            return
        message_type = type(message)
        if (message_type in _GATED_TYPE_SET
                and sender not in self._gate_senders
                and not self._gated_sender_ok(message_type, sender)):
            self._on_gated_message(message, sender)
            return
        handler = self._DISPATCH_TABLE.get(message_type)
        if handler is None:
            raise ConsensusError(
                f"{self.name}: no handler for {message_type.__name__}")
        handler(self, message, sender)

    def _rebuild_gate_senders(self) -> None:
        config = self._configuration
        self._gate_senders = frozenset(
            (self.name, *config.members, *config.observers))

    def _gated_sender_ok(self, message_type: type, sender: str) -> bool:
        """Membership gate for a type already known to be in
        ``_GATED_TYPE_SET``.

        ``_gate_senders`` covers self + members + observers (observers
        replicate the log: their acks and slot votes must reach the
        leader; quorum rules decide what they count for). :meth:`handle`
        tests it inline first -- nearly every message passes there --
        and calls this only for the rest."""
        if sender in self._gate_senders or sender in self._extra_allowed:
            return True
        # A site that is not (or no longer) a voting member accepts
        # catch-up AppendEntries/InstallSnapshot from anyone: its own
        # configuration view is stale by definition, and stale *leaders*
        # are rejected by the term check inside the handler.
        if message_type in _CATCHUP_OPEN_SET and not self.is_member:
            return True
        return False

    def _on_gated_message(self, message: Any, sender: str) -> None:
        """Tell an evicted site it is out of the configuration so it can
        rejoin (paper Section IV-D: such a site "will need to send a join
        request to return to the configuration")."""
        self._trace("gate.ignored", sender=sender,
                    type=type(message).__name__)
        if isinstance(message, (RequestVote, VoteEntry, AppendEntries)):
            self._send(sender, NotInConfiguration(
                term=self.current_term,
                members=self._configuration.members,
                leader_hint=self._leader_id))

    # ------------------------------------------------------------------
    # Probe-before-trust recovery (README "Crash recovery & rejoin")
    # ------------------------------------------------------------------
    def begin_recovery_probe(self) -> None:
        """Ask the restored configuration whether it still governs before
        trusting it. The host calls this right after a recovery start: a
        site evicted by the member timeout while down restores a
        configuration that still lists it, so without the probe it idles
        as a silent follower until an accidental election timeout trips
        the ``NotInConfiguration`` rejoin path. Peers answer with their
        governing config epoch; a strictly newer epoch that excludes us
        routes straight onto the rejoin path, a confirmation resumes
        normal operation, and a timeout falls back to trusting the
        restored configuration outright (a fully partitioned recovery
        must still come up)."""
        if self._stopped or self.timing.recovery_probe_timeout <= 0:
            return
        contacts = set(self._configuration.members)
        if self._leader_id is not None:
            contacts.add(self._leader_id)
        if self.voted_for is not None:
            # The persisted vote is the freshest leader hint stable
            # storage offers (granting it named a then-live candidate).
            contacts.add(self.voted_for)
        contacts.discard(self.name)
        if not contacts:
            return
        self._recovering = True
        version = self.log.config_at(self.log.last_index + 1,
                                     self.commit_index, self._config_base())[0]
        probe = RecoveryProbe(site=self.name, config_version=version,
                              term=self.current_term)
        for contact in sorted(contacts):
            self._send(contact, probe)
        self._recovery_probe_timer.reset(self.timing.recovery_probe_timeout)
        self._trace("recovery.probe", contacts=sorted(contacts),
                    config_version=probe.config_version)

    @handles(RecoveryProbe)
    def _handle_recovery_probe(self, msg: RecoveryProbe, sender: str) -> None:
        self._trace("recovery.probed", site=msg.site,
                    config_version=msg.config_version)
        version = self.log.config_at(self.log.last_index + 1,
                                     self.commit_index, self._config_base())[0]
        self._send(sender, RecoveryProbeReply(
            term=self.current_term, config_version=version,
            members=self._configuration.members,
            leader_hint=self._leader_id,
            is_member=msg.site in self._configuration))

    @handles(RecoveryProbeReply)
    def _handle_recovery_probe_reply(self, msg: RecoveryProbeReply,
                                     sender: str) -> None:
        ours = self.log.config_at(self.log.last_index + 1,
                                  self.commit_index, self._config_base())[0]
        if not msg.is_member and msg.config_version > ours:
            # A strictly newer configuration excludes us: the restored
            # membership was stale. Acted on even after the probe timed
            # out -- a late reply is still fresher knowledge than the
            # stale configuration we fell back to trusting. (Once we
            # rejoin, our own governing version overtakes the reply's, so
            # stragglers land in the stale branch below.)
            self._finish_recovery_probe("rejected")
            self._on_recovery_probe_rejected(msg, sender)
            return
        if msg.is_member and msg.config_version >= ours:
            self._observe_term(msg.term, leader_hint=msg.leader_hint)
            if self._leader_id is None and msg.leader_hint is not None:
                self.leader_id = msg.leader_hint
            self._finish_recovery_probe("confirmed")
            return
        # The peer's view is staler than our restored one: evidence of
        # nothing -- keep waiting for the rest of the fan-out.

    def _finish_recovery_probe(self, outcome: str) -> None:
        if not self._recovering:
            return
        self._recovering = False
        self._recovery_probe_timer.cancel()
        if outcome == "confirmed":
            self.recovery_probes_confirmed += 1
        elif outcome == "rejected":
            self.recovery_probes_rejected += 1
        else:
            self.recovery_probes_timeout += 1
        self._trace("recovery.probe_done", outcome=outcome)

    def _on_recovery_probe_timeout(self) -> None:
        if self._stopped:
            return
        # Nobody answered (partition, lossy probe path, everyone down):
        # trust the restored configuration after all -- exactly the
        # pre-probe behaviour, so an eviction is still learned eventually
        # through the election-timeout NotInConfiguration path.
        self._finish_recovery_probe("timeout")

    def _on_recovery_probe_rejected(self, msg: RecoveryProbeReply,
                                    sender: str) -> None:
        """Hook: Fast Raft funnels this into its NotInConfiguration
        rejoin path. A classic Raft configuration never changes, so no
        reply is ever newer than its own, and the default is empty."""

    # ------------------------------------------------------------------
    # Leader leases (linearizable local reads)
    # ------------------------------------------------------------------
    def _lease_expiry(self, now: float) -> float:
        """Until when this leader's lease provably holds: the
        ``classic_quorum``-th newest acked beat send time, plus the
        lease duration, minus the clock-skew margin. A quorum of
        replicas acked beats sent at or after that base time -- and an
        acked lease-carrying beat is a promise to refuse election votes
        until its advertised expiry -- so no competing leader can be
        elected (and commit writes this leader has not seen) before it.
        Returns 0.0 when no quorum has acked anything yet."""
        config = self._configuration
        name = self.name
        acks_get = self._lease_acks.get
        base = classic_reached(config, [
            now if member == name else acks_get(member, 0.0)
            for member in config.members])
        if base <= 0.0:
            return 0.0
        return base + self.timing.lease_duration - self.timing.lease_skew

    def lease_valid(self, now: float) -> bool:
        """Leader-side check: may this engine serve a local linearizable
        read right now?"""
        return (self.lease_enabled and self.role is Role.LEADER
                and self._lease_expiry(now) > now)

    def _record_lease_ack(self, follower: str, beat_sent_at: float) -> None:
        if beat_sent_at > self._lease_acks.get(follower, 0.0):
            self._lease_acks[follower] = beat_sent_at

    def _note_lease_beat(self, msg: Any) -> None:
        """Follower side: a lease-carrying AppendEntries arrived (called
        after its entries were absorbed and the commit index advanced)."""
        if msg.lease_until > self._follower_lease_until:
            self._follower_lease_until = msg.lease_until
        hook = self.on_lease_beat
        if hook is not None:
            hook(msg.sent_at, msg.leader_commit, msg.lease_until)

    # ------------------------------------------------------------------
    # Term handling
    # ------------------------------------------------------------------
    def _observe_term(self, term: int, leader_hint: str | None = None) -> None:
        """Adopt a higher term and fall back to follower if needed."""
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
            self._persist_term_vote()
            # A partial chunked transfer is tied to its shipping leader's
            # term; the new term's leader restarts from scratch.
            self._discard_partial_transfer("term_change")
            self._become_follower(leader_hint)

    # ------------------------------------------------------------------
    # Role transitions
    # ------------------------------------------------------------------
    def _become_follower(self, leader_hint: str | None = None) -> None:
        previous = self.role
        self.role = Role.FOLLOWER
        if leader_hint is not None:
            self.leader_id = leader_hint
        self._votes_received.clear()
        self._chunk_senders.clear()  # outbound transfers are leader state
        self._snapshot_inflight.clear()
        self._stop_role_timers()
        if previous is not Role.FOLLOWER:
            self._trace("role.follower", term=self.current_term)
            self.ctx.on_role_change(Role.FOLLOWER)
        self._arm_election_timer()

    def _become_candidate(self) -> None:
        self.role = Role.CANDIDATE
        self.current_term += 1
        self.voted_for = self.name
        self._persist_term_vote()
        self.leader_id = None
        self._votes_received = {self.name}
        self._trace("role.candidate", term=self.current_term)
        request = self._make_vote_request()
        for site in self._vote_request_targets():
            self._send(site, request)
        self._arm_election_timer()
        self._maybe_win_election()  # single-member configuration

    def _become_leader(self) -> None:
        self.role = Role.LEADER
        self.leader_id = self.name
        self._election_timer.cancel()
        self._trace("role.leader", term=self.current_term)
        self._init_leader_state()
        self.ctx.on_role_change(Role.LEADER)

    def _vote_request_targets(self) -> list[str]:
        """Members plus observers: observer ballots are only *counted*
        when the tiebreaker rule applies, but soliciting them is always
        harmless (one vote per term either way)."""
        return list(self._configuration.replicas_without(self.name))

    # Subclass responsibilities ----------------------------------------
    def _make_vote_request(self) -> RequestVote:
        raise NotImplementedError

    def _init_leader_state(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Election timer
    # ------------------------------------------------------------------
    def _arm_election_timer(self) -> None:
        timeout = randomized_timeout(self.ctx.rng,
                                     self.timing.election_timeout_min,
                                     self.timing.election_timeout_max)
        self._election_timer.reset(timeout)

    def _on_election_timeout(self) -> None:
        if self._stopped or self.role is Role.LEADER:
            return
        if not self.is_member:
            # Evicted (or never-admitted) sites cannot win an election;
            # they wait for membership handling instead of spamming votes.
            self._on_election_timeout_as_nonmember()
            return
        self._trace("election.timeout", term=self.current_term)
        self._become_candidate()

    def _on_election_timeout_as_nonmember(self) -> None:
        """Hook: Fast Raft launches a (re)join request here. A classic
        Raft site started outside its (static) configuration idles."""
        self._arm_election_timer()

    # ------------------------------------------------------------------
    # Elections: voting
    # ------------------------------------------------------------------
    @handles(RequestVote)
    def _handle_request_vote(self, msg: RequestVote, sender: str) -> None:
        # "Sites that receive the RequestVote message immediately move to
        # the new term."
        self._observe_term(msg.term)
        if msg.term < self.current_term:
            self._send(sender, self._make_vote_response(False))
            return
        if (self.lease_enabled and msg.candidate_id != self._leader_id
                and self.now() < self._follower_lease_until):
            # Acking a lease-carrying beat promised the leader no rival
            # would be elected before the advertised expiry; honoring
            # that promise here is what makes lease reads linearizable.
            self._trace("election.vote_suppressed",
                        candidate=msg.candidate_id,
                        lease_until=self._follower_lease_until)
            self._send(sender, self._make_vote_response(False))
            return
        can_vote = self.voted_for in (None, msg.candidate_id)
        granted = can_vote and self._candidate_up_to_date(msg)
        if granted:
            self.voted_for = msg.candidate_id
            self._persist_term_vote()
            self._arm_election_timer()
        self._trace("election.vote", candidate=msg.candidate_id,
                    term=msg.term, granted=granted)
        self._send(sender, self._make_vote_response(granted))

    def _candidate_up_to_date(self, msg: RequestVote) -> bool:
        raise NotImplementedError

    def _make_vote_response(self, granted: bool) -> RequestVoteResponse:
        return RequestVoteResponse(term=self.current_term,
                                   vote_granted=granted, voter=self.name)

    @handles(RequestVoteResponse)
    def _handle_request_vote_response(self, msg: RequestVoteResponse,
                                      sender: str) -> None:
        self._observe_term(msg.term)
        if self.role is not Role.CANDIDATE or msg.term < self.current_term:
            return
        if msg.vote_granted and (msg.voter in self._configuration
                                 or msg.voter in
                                 self._configuration.observers):
            self._votes_received.add(msg.voter)
            self._absorb_vote_response(msg)
            self._maybe_win_election()

    def _absorb_vote_response(self, msg: RequestVoteResponse) -> None:
        """Hook: Fast Raft collects self-approved entries for recovery."""

    def _maybe_win_election(self) -> None:
        if self.role is not Role.CANDIDATE:
            return
        if wins_election(self._configuration, self._votes_received):
            self._trace("election.won", term=self.current_term,
                        votes=sorted(self._votes_received))
            self._become_leader()

    # ------------------------------------------------------------------
    # Replication: leader side (Raft's AppendEntries track, which Fast
    # Raft runs as its classic track). Each engine supplies the rest:
    # ``_replication_frontier`` (the last index a leader replicates),
    # ``_advance_leader_commit`` (its commit step), ``_log_matches`` and
    # ``_absorb_append_entries`` (its follower's consistency check and
    # absorb step). Fast Raft alone changes membership, through the
    # config-change queue below and its ``_start_next_config_change`` /
    # ``_propose_joiner_config``.
    # ------------------------------------------------------------------
    def _append_targets(self) -> list[str]:
        # Replicas = members + standing observers (which replicate but
        # never vote commits); plus any joiners mid-catch-up. An observer
        # under pre-join catch-up would appear twice.
        targets = list(self._configuration.replicas_without(self.name))
        targets.extend(sorted(self._catchup_targets))
        return list(dict.fromkeys(targets))

    def _broadcast_append_entries(self) -> None:
        """One leader beat: AppendEntries to every replication target.

        Followers with equal nextIndex need byte-identical messages, so
        the beat builds one immutable AppendEntries per distinct
        nextIndex and reuses it (entries slice, size memo and all)
        across those followers. Send order is per target, so the
        fabric's RNG stream does not depend on the sharing.
        """
        if self.role is not Role.LEADER:
            return
        self._tick_member_timeouts()
        round_cache: dict[int, AppendEntries] = {}
        for target in self._append_targets():
            self._send_append_entries(target, round_cache)

    def _tick_member_timeouts(self) -> None:
        """Hook: Fast Raft's silent-leave detector counts a missed beat."""

    def _send_append_entries(self, target: str,
                             round_cache: dict | None = None) -> None:
        next_index = self.next_index.get(target)
        if next_index is None:
            next_index = self._replication_frontier() + 1
        if next_index <= self.log.snapshot_index:
            # The entries this follower needs are compacted away: ship the
            # snapshot instead of replaying the log.
            self._send_install_snapshot(target)
            return
        message = (round_cache.get(next_index)
                   if round_cache is not None else None)
        if message is None:
            prev_index = next_index - 1
            prev_term = self.log.term_at(prev_index) if prev_index > 0 else 0
            hi = min(self._replication_frontier(),
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

    @handles(AppendEntriesResponse)
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
            match = max(self.match_index.get(follower, 0), msg.match_index)
            self.match_index[follower] = match
            self.next_index[follower] = max(
                self.next_index.get(follower, 1), match + 1)
            self._advance_leader_commit()
            self._check_catchup_complete(follower)
            self._maybe_complete_stepdown()
        else:
            current = self.next_index.get(follower)
            if current is None:
                current = self._replication_frontier() + 1
            self.next_index[follower] = max(
                1, min(current - 1, msg.last_log_index + 1))
            self._nudge_chunk_transfer(follower)

    def _note_follower_alive(self, follower: str) -> None:
        """Hook: Fast Raft resets the member-timeout beat counter."""

    def _maybe_complete_stepdown(self) -> None:
        """Hook: a Fast Raft leader that committed its own exclusion
        abdicates once its successors hold that entry."""

    # ------------------------------------------------------------------
    # Replication: follower side
    # ------------------------------------------------------------------
    @handles(AppendEntries)
    def _handle_append_entries(self, msg: AppendEntries, sender: str) -> None:
        self._observe_term(msg.term, leader_hint=msg.leader_id)
        if msg.term >= self.current_term:
            self._follow(msg.leader_id)
            self._on_leader_append()
            if self._log_matches(msg.prev_log_index, msg.prev_log_term):
                self._absorb_append_entries(msg, sender)
                return
        # A stale term or a failed consistency check.
        self._send(sender, AppendEntriesResponse(
            term=self.current_term, success=False, follower=self.name,
            match_index=0, last_log_index=self.log.last_index))

    def _follow(self, leader_id: str) -> None:
        """A current-term leader spoke (AppendEntries or a snapshot),
        which implies an elected leader: candidates convert to follower,
        followers refresh their election timer."""
        if self.role is not Role.FOLLOWER:
            self._become_follower(leader_id)
        else:
            self.leader_id = leader_id
            self._arm_election_timer()

    def _on_leader_append(self) -> None:
        """Hook: Fast Raft clears an eviction notice and retries a join
        here, before the consistency check."""

    def _append_entries_absorbed(self, sender: str, msg: AppendEntries,
                                 last_new: int) -> None:
        """The absorb step is done (for C-Raft's global engine, after a
        round of local consensus): commit, note the lease, and ack."""
        if msg.leader_commit > self.commit_index:
            self._advance_commit_index(min(msg.leader_commit,
                                           max(last_new, self.commit_index)))
        if msg.lease_until:
            self._note_lease_beat(msg)
        self._send(sender, AppendEntriesResponse(
            term=self.current_term, success=True, follower=self.name,
            match_index=last_new, last_log_index=self.log.last_index,
            beat_sent_at=msg.sent_at))

    # ------------------------------------------------------------------
    # Serialized configuration changes (leader)
    # ------------------------------------------------------------------
    def _enqueue_config_change(self, change: dict[str, Any]) -> None:
        self._config_queue.append(change)
        self._start_next_config_change()

    def _check_catchup_complete(self, follower: str) -> None:
        """A joiner mid-catch-up that now holds everything the leader
        replicates gets its configuration entry."""
        pending = self._pending_config
        if (pending is None or pending["action"] != "add"
                or pending["site"] != follower
                or "entry_id" in pending):
            return
        if self.match_index.get(follower, 0) >= self._replication_frontier():
            self._propose_joiner_config(pending)

    # ------------------------------------------------------------------
    # Commit advancement
    # ------------------------------------------------------------------
    def _classic_commit_point(self) -> int:
        """Commit the highest index replicated on a classic quorum whose
        entry is from the current term: the classic track's commit point
        (``commit_index`` if none is higher). The leader's log counts as
        its ``_replication_frontier``; a leader outside the configuration
        (lingering after its own exclusion committed) casts no vote, or
        it could commit entries its successors never saw. Fast Raft's
        terms are not monotonic along the log, hence the downward scan."""
        commit = self.commit_index
        frontier = self._replication_frontier()
        if frontier <= commit:
            return commit
        config = self._configuration
        name = self.name
        match_get = self.match_index.get
        frontier = min(frontier, classic_reached(config, [
            frontier if member == name else match_get(member, 0)
            for member in config.members]))
        log_get = self.log.get
        term = self.current_term
        for k in range(frontier, commit, -1):
            entry = log_get(k)
            if entry is not None and entry.term == term:
                return k
        return commit

    def _advance_commit_index(self, new_commit: int) -> None:
        """Move ``commit_index`` to ``new_commit``, applying in order.

        Stops early at a hole: a site never considers an entry committed
        before holding it (the contiguity guard; Fast Raft logs can have
        holes where no proposal arrived yet).

        The loop constants (log accessor, apply/origin callbacks, trace
        flag) resolve once per sweep instead of once per entry. The
        per-entry *callback order* is load-bearing -- apply callbacks
        send messages (client replies, C-Raft batch proposals), so
        reordering them against each other would shift the network RNG
        stream and with it every pinned trajectory. ``commit_index`` is
        read back each iteration because an apply callback may advance
        it reentrantly.
        """
        start = self.commit_index
        if start >= new_commit:
            return
        log_get = self.log.get
        ctx = self.ctx
        on_apply = ctx.on_apply
        on_origin = ctx.on_origin_commit
        committed_hook = self._on_entry_committed
        tracing = self._tracing
        name = self.name
        while self.commit_index < new_commit:
            next_index = self.commit_index + 1
            entry = log_get(next_index)
            if entry is None:
                break
            self.commit_index = next_index
            if tracing:
                self._trace("commit", index=next_index,
                            entry_id=entry.entry_id,
                            kind=entry.kind.value, term=entry.term)
            if entry.kind is EntryKind.CONFIG:
                # A fast-track commit can land on a still-self-approved
                # copy of the entry; tentative configs do not govern
                # until decided, so activation happens here at latest.
                self._refresh_configuration()
            committed_hook(next_index, entry)
            on_apply(next_index, entry)
            if entry.origin == name:
                on_origin(entry, next_index)
        if self.commit_index != start:
            self._maybe_compact()

    def _on_entry_committed(self, index: int, entry: LogEntry) -> None:
        """Hook: leaders notify origins, finish config changes, etc."""

    # ------------------------------------------------------------------
    # Snapshotting and log compaction
    # ------------------------------------------------------------------
    def _maybe_compact(self) -> None:
        policy = self.compaction
        if policy is None or self.ctx.capture_snapshot is None:
            return
        if policy.should_compact(self.commit_index, self.log.snapshot_index):
            self.take_snapshot()

    def take_snapshot(self) -> Snapshot | None:
        """Capture the applied state at ``commit_index``, persist it, and
        compact the log (keeping the policy's retained tail)."""
        if self.ctx.capture_snapshot is None:
            return None
        if self.commit_index <= self.log.snapshot_index:
            return None  # nothing new to cover
        image = self.ctx.capture_snapshot()
        # The snapshot covers only the committed prefix, so it must carry
        # the configuration governing *at commit_index* -- not the live
        # one, which may come from an uncommitted CONFIG entry that a new
        # leader could still truncate (the snapshot copy would survive
        # that truncation and immortalize a never-committed membership).
        # Its base is the previous snapshot's alone: with nothing to carry
        # it carries nothing, and an installer keeps its own bootstrap.
        version, members, observers = self.log.config_at(
            self.commit_index + 1, self.commit_index,
            carried_config(self.snapshot_store.latest))
        snapshot = Snapshot(
            last_included_index=self.commit_index,
            last_included_term=self.log.term_at(self.commit_index),
            machine_state=image.machine_state,
            applied_ids=image.applied_ids,
            config_members=members, config_version=version,
            config_observers=observers,
            taken_at=self.now(), origin=self.name)
        self.snapshot_store.save(snapshot)
        retain = self.compaction.retain if self.compaction is not None else 0
        compact_upto = self.commit_index - retain
        if compact_upto > self.log.snapshot_index:
            self.entries_compacted += self.log.compact_to(compact_upto)
            # Compaction rewrites the log file: charge the retained tail.
            self.ctx.store.touch("log", size=self._retained_log_size())
        self.snapshots_taken += 1
        self._trace("snapshot.taken", index=snapshot.last_included_index,
                    term=snapshot.last_included_term,
                    compacted_to=self.log.snapshot_index)
        return snapshot

    def _retained_log_size(self) -> int:
        """Payload size of every retained entry (the bytes a log rewrite
        after compaction actually puts on disk). The log holds at most
        about one compaction threshold of entries here, so the walk is
        cheap and happens only at compaction/install sites."""
        return sum(estimate_size(entry) for _, entry in self.log)

    def _send_install_snapshot(self, target: str) -> None:
        """Ship the newest snapshot to a follower whose needed prefix was
        compacted away (leader side; replaces AppendEntries)."""
        snapshot = self.snapshot_store.latest
        if snapshot is None:
            return  # compacted log without a snapshot cannot happen
        if self.transfer.chunked:
            self._send_snapshot_chunks(target, snapshot)
            return
        inflight = self._snapshot_inflight.get(target)
        if (inflight is not None
                and inflight[0] == snapshot.last_included_index
                and self.now() - inflight[1] < self.timing.proposal_timeout):
            # Give the in-flight bulk transfer a chance to be acked; probe
            # so a target that lost the transfer (crash, message loss)
            # answers and gets a prompt re-ship.
            self._send_snapshot_probe(target, snapshot.last_included_index,
                                      snapshot.last_included_term)
            return
        self._snapshot_inflight[target] = (snapshot.last_included_index,
                                           self.now())
        self.snapshots_shipped += 1
        self._trace("snapshot.ship", to=target,
                    index=snapshot.last_included_index)
        self._send(target, InstallSnapshotRequest(
            term=self.current_term, leader_id=self.name, snapshot=snapshot))

    def _send_snapshot_probe(self, target: str, snapshot_index: int,
                             snapshot_term: int) -> None:
        """An empty AppendEntries anchored at the snapshot point: a
        follower that holds the snapshot answers success (resuming normal
        replication), one that lost the transfer answers a failed match,
        prompting an immediate re-ship/nudge. Shared by the monolithic
        in-flight wait and the chunked stall detector."""
        self._send(target, AppendEntries(
            term=self.current_term, leader_id=self.name,
            prev_log_index=snapshot_index, prev_log_term=snapshot_term,
            entries=(), leader_commit=self.commit_index,
            global_commit=self._global_commit_piggyback()))

    def _global_commit_piggyback(self) -> int:
        provider = self.global_commit_provider
        return 0 if provider is None else provider()

    # ------------------------------------------------------------------
    # Chunked snapshot transfer: leader side
    # ------------------------------------------------------------------
    def _send_snapshot_chunks(self, target: str, snapshot: Snapshot) -> None:
        """Drive the chunked transfer of ``snapshot`` to ``target``.

        Called from the heartbeat path (every beat while the follower's
        nextIndex sits below the compaction point), so it doubles as the
        stall detector: no new chunk goes out while the window is full,
        and unacked chunks are resent after one proposal timeout.
        """
        sender = self._chunk_senders.get(target)
        if sender is not None and sender.snapshot_index != \
                snapshot.last_included_index:
            # Compaction advanced mid-transfer: the newer image
            # supersedes the one in flight.
            self._trace("snapshot.transfer_superseded", to=target,
                        old=sender.snapshot_index,
                        new=snapshot.last_included_index)
            sender = None
        if sender is None:
            data = serialize_snapshot(snapshot)
            sender = SnapshotSender(snapshot, data,
                                    self.transfer.chunk_size, self.now())
            self._chunk_senders[target] = sender
            self.snapshots_shipped += 1
            self._trace("snapshot.ship", to=target,
                        index=snapshot.last_included_index,
                        chunks=len(sender.chunks), bytes=len(data))
            self._pump_chunks(target, sender)
            return
        if (self.now() - sender.last_activity
                < self.timing.proposal_timeout):
            self._pump_chunks(target, sender)  # window may have opened
            # A follower that lost its reassembly buffer (crash
            # mid-transfer) fails the probe's match, which nudges the
            # transfer awake instead of waiting out the retry timeout.
            self._send_snapshot_probe(target, sender.snapshot_index,
                                      sender.snapshot.last_included_term)
            return
        # Stalled: chunks or acks were lost -- or everything was acked
        # but the install confirmation never came (the follower crashed
        # and its reassembly buffer died with it); resend accordingly.
        if sender.done:
            sender.restart()
            self._trace("snapshot.transfer_restart", to=target,
                        index=sender.snapshot_index,
                        restarts=sender.restarts)
        else:
            sender.requeue_unacked()
        self._pump_chunks(target, sender)

    def _pump_chunks(self, target: str, sender: SnapshotSender) -> None:
        """Put chunks on the wire up to the configured window."""
        sent_any = False
        for offset, _, data, done in sender.take(self.transfer.chunk_window):
            self._send(target, InstallSnapshotChunk(
                term=self.current_term, leader_id=self.name,
                last_included_index=sender.snapshot_index,
                last_included_term=sender.snapshot.last_included_term,
                offset=offset, data=data,
                total_size=sender.total_size, done=done))
            self.snapshot_chunks_sent += 1
            sent_any = True
        if sent_any:
            sender.last_activity = self.now()

    @handles(InstallSnapshotChunkAck)
    def _handle_install_snapshot_chunk_ack(self, msg: InstallSnapshotChunkAck,
                                           sender: str) -> None:
        self._observe_term(msg.term)
        if self.role is not Role.LEADER or msg.term < self.current_term:
            return
        self._note_follower_alive(msg.follower)
        transfer = self._chunk_senders.get(msg.follower)
        if transfer is None or transfer.snapshot_index != \
                msg.last_included_index:
            return  # ack for a transfer that no longer exists
        if not msg.success:
            return  # stale-term reject; _observe_term handled any news
        transfer.last_ack = self.now()
        if transfer.ack(msg.offset):
            transfer.last_activity = self.now()
        self._pump_chunks(msg.follower, transfer)

    def _nudge_chunk_transfer(self, follower: str) -> None:
        """A failed AppendEntries response arrived from a follower with a
        transfer in progress: if no ack has landed for a couple of beats,
        the follower has evidently lost the transfer state (crash and
        recovery wipes its reassembly buffer), so resend without waiting
        for the retry timeout. Ack-healthy transfers ignore the nudge --
        the probe AppendEntries fails by design until the install lands.
        """
        sender = self._chunk_senders.get(follower)
        if sender is None:
            return
        # The grace period must outlast one transfer round trip, which
        # the leader cannot measure; half the proposal timeout (floored at
        # two beats) covers every WAN route this repo models while still
        # beating the full stall retry by 2x.
        grace = max(2 * self.timing.heartbeat_interval,
                    self.timing.proposal_timeout / 2)
        if self.now() - sender.last_ack < grace:
            return
        sender.last_ack = self.now()  # rate-limit repeated nudges
        if sender.done:
            sender.restart()
        else:
            sender.requeue_unacked()
        self._trace("snapshot.transfer_nudged", to=follower,
                    index=sender.snapshot_index)
        self._pump_chunks(follower, sender)

    @handles(InstallSnapshotRequest)
    def _handle_install_snapshot(self, msg: InstallSnapshotRequest,
                                 sender: str) -> None:
        self._observe_term(msg.term, leader_hint=msg.leader_id)
        snapshot = msg.snapshot
        if msg.term < self.current_term:
            self._send(sender, InstallSnapshotResponse(
                term=self.current_term, follower=self.name,
                last_included_index=snapshot.last_included_index,
                success=False))
            return
        self._follow(msg.leader_id)
        self._accept_snapshot(snapshot, sender)

    def _accept_snapshot(self, snapshot: Snapshot, sender: str) -> None:
        """Common tail of both transfer modes: a complete snapshot is in
        hand; route it through the (possibly asynchronous) install gate
        and confirm to the leader."""
        if snapshot.last_included_index <= self.commit_index:
            # Already past the snapshot point; just ack so the leader
            # advances nextIndex and resumes AppendEntries.
            self._send(sender, InstallSnapshotResponse(
                term=self.current_term, follower=self.name,
                last_included_index=snapshot.last_included_index,
                success=True))
            return
        if (self._install_pending is not None
                and snapshot.last_included_index <= self._install_pending):
            # An install covering this point is already mid-gate; a
            # duplicate would open another (expensive) gated round.
            return
        self._install_pending = snapshot.last_included_index
        self._gate_snapshot_install(
            snapshot, partial(self._snapshot_install_done, sender, snapshot))

    # ------------------------------------------------------------------
    # Chunked snapshot transfer: follower side
    # ------------------------------------------------------------------
    def _discard_partial_transfer(self, reason: str) -> None:
        """Drop the reassembly buffer: a partial image is useless, and
        holding it across a term change or a newer snapshot would let a
        stale transfer complete from mixed-generation chunks."""
        assembler = self._chunk_assembler
        if assembler is None:
            return
        self._chunk_assembler = None
        self._trace("snapshot.transfer_discarded", reason=reason,
                    index=assembler.last_included_index,
                    received=assembler.received_bytes,
                    total=assembler.total_size)

    @handles(InstallSnapshotChunk)
    def _handle_install_snapshot_chunk(self, msg: InstallSnapshotChunk,
                                       sender: str) -> None:
        self._observe_term(msg.term, leader_hint=msg.leader_id)
        if msg.term < self.current_term:
            # A deposed leader's straggler; the reject carries our term.
            self._send(sender, InstallSnapshotChunkAck(
                term=self.current_term, follower=self.name,
                last_included_index=msg.last_included_index,
                offset=msg.offset, success=False))
            return
        self._follow(msg.leader_id)
        if msg.last_included_index <= self.commit_index:
            # Already past this snapshot: full-confirm so the leader
            # abandons the transfer and resumes AppendEntries.
            self._send(sender, InstallSnapshotResponse(
                term=self.current_term, follower=self.name,
                last_included_index=msg.last_included_index, success=True))
            return
        if (self._install_pending is not None
                and msg.last_included_index <= self._install_pending):
            return  # an install covering this point is already mid-gate
        assembler = self._chunk_assembler
        if assembler is not None and (
                assembler.last_included_index < msg.last_included_index
                or assembler.leader_term < msg.term):
            # A newer snapshot (or a fresh leader's transfer of the same
            # one) supersedes the partial buffer.
            self._discard_partial_transfer("superseded")
            assembler = None
        if (assembler is not None
                and assembler.last_included_index > msg.last_included_index):
            return  # straggler chunk of an older snapshot; let it die
        if assembler is None:
            assembler = ChunkAssembler(
                last_included_index=msg.last_included_index,
                last_included_term=msg.last_included_term,
                leader_term=msg.term, total_size=msg.total_size)
            self._chunk_assembler = assembler
        assembler.add(msg.offset, msg.data)
        self._send(sender, InstallSnapshotChunkAck(
            term=self.current_term, follower=self.name,
            last_included_index=msg.last_included_index,
            offset=msg.offset, success=True))
        if assembler.complete:
            snapshot = deserialize_snapshot(assembler.assemble())
            self._chunk_assembler = None
            self._trace("snapshot.reassembled",
                        index=snapshot.last_included_index,
                        chunks=assembler.chunks_received,
                        bytes=assembler.total_size)
            self._accept_snapshot(snapshot, sender)

    def _gate_snapshot_install(self, snapshot: Snapshot,
                               then: Callable[[], None]) -> None:
        """Install ``snapshot`` then run ``then``. The C-Raft global
        engine overrides this to first replicate the image through
        intra-cluster consensus, exactly like its gated log inserts."""
        self._install_snapshot(snapshot)
        then()

    def _snapshot_install_done(self, sender: str, snapshot: Snapshot) -> None:
        if (self._install_pending is not None
                and self._install_pending <= snapshot.last_included_index):
            self._install_pending = None
        self._send(sender, InstallSnapshotResponse(
            term=self.current_term, follower=self.name,
            last_included_index=snapshot.last_included_index, success=True))

    def _install_snapshot(self, snapshot: Snapshot) -> None:
        """Adopt a leader-shipped snapshot: wholesale replacement of the
        compacted prefix. Retained suffix entries above the snapshot point
        survive; later replication resolves any conflicts among them."""
        self._trace("snapshot.install", index=snapshot.last_included_index,
                    term=snapshot.last_included_term, origin=snapshot.origin)
        self.entries_compacted += self.log.install_snapshot(
            snapshot.last_included_index, snapshot.last_included_term)
        # A log rewrite anchored at the new snapshot point: charge what
        # survives (the snapshot itself is charged by its store save).
        self.ctx.store.touch("log", size=self._retained_log_size())
        self.snapshot_store.save(snapshot)
        self.snapshots_installed += 1
        # commitIndex is volatile but never regresses: the snapshot covers
        # a committed prefix, so jumping to it is a plain commit advance
        # whose applies are replaced by the restored image. (max: an
        # asynchronously gated install may complete after commitIndex
        # already moved past the snapshot point.)
        self.commit_index = max(self.commit_index,
                                snapshot.last_included_index)
        self._refresh_configuration()
        self._after_snapshot_install(snapshot)
        self.ctx.on_snapshot_restore(snapshot)

    def _after_snapshot_install(self, snapshot: Snapshot) -> None:
        """Hook: Fast Raft floors lastLeaderIndex, drops stale votes."""

    @handles(InstallSnapshotResponse)
    def _handle_install_snapshot_response(self, msg: InstallSnapshotResponse,
                                          sender: str) -> None:
        # Leader side: the snapshot half of the next/match bookkeeping
        # (the AppendEntries half is _handle_append_entries_response).
        self._observe_term(msg.term)
        if self.role is not Role.LEADER or msg.term < self.current_term:
            return
        follower = msg.follower
        self._snapshot_inflight.pop(follower, None)
        transfer = self._chunk_senders.get(follower)
        if (transfer is not None
                and transfer.snapshot_index <= msg.last_included_index):
            # This response covers (or supersedes) the in-progress
            # transfer's snapshot point. A stale response for an *older*
            # image must not abort a newer transfer mid-flight.
            self._chunk_senders.pop(follower)
        self._note_follower_alive(follower)
        if not msg.success:
            return
        self.match_index[follower] = max(
            self.match_index.get(follower, 0), msg.last_included_index)
        self.next_index[follower] = max(
            self.next_index.get(follower, 1), msg.last_included_index + 1)
        self._check_catchup_complete(follower)

    # ------------------------------------------------------------------
    # Default no-op handlers (overridden where meaningful)
    # ------------------------------------------------------------------
    @handles(CommitNotice)
    def _handle_commit_notice(self, msg: CommitNotice, sender: str) -> None:
        entry = self.log.get(msg.index)
        if entry is not None and entry.entry_id == msg.entry_id:
            self.ctx.on_origin_commit(entry, msg.index)

    @handles(ClientRequest)
    def _handle_client_request(self, msg: ClientRequest, sender: str) -> None:
        raise NotImplementedError

    @handles(JoinRequest)
    def _handle_join_request(self, msg: JoinRequest, sender: str) -> None:
        self._trace("join.unsupported", site=msg.site)

    @handles(LeaveRequest)
    def _handle_leave_request(self, msg: LeaveRequest, sender: str) -> None:
        self._trace("leave.unsupported", site=msg.site)

    @handles(JoinAccepted)
    def _handle_join_accepted(self, msg: JoinAccepted, sender: str) -> None:
        pass

    @handles(LeaveAccepted)
    def _handle_leave_accepted(self, msg: LeaveAccepted, sender: str) -> None:
        pass

    @handles(NotInConfiguration)
    def _handle_not_in_configuration(self, msg: NotInConfiguration,
                                     sender: str) -> None:
        pass


# ``__init_subclass__`` only fires for subclasses; resolve the base
# class's own table now that its body (and the @handles marks) exist.
BaseEngine._DISPATCH_TABLE = resolve_dispatch_table(BaseEngine)
