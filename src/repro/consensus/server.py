"""ConsensusServer: binds a protocol engine to a network address.

The server owns everything that is *not* consensus: the client edge
(a :class:`~repro.smr.frontend.ServingFrontend`: request -> client,
exactly-once apply and replies, session dedup for retried requests),
lease-based local reads, optional proposal coalescing on the leader,
state-machine application of committed DATA entries, and crash/recovery
(rebuilding the engine from stable storage with fresh volatile state).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.consensus.config import Configuration, TransferConfig
from repro.consensus.engine import BaseEngine, EngineContext, Role
from repro.consensus.entry import EntryKind, LogEntry
from repro.consensus.messages import ClientRequest, ReadReply, ReadRequest
from repro.consensus.timing import TimingConfig
from repro.net.network import Network
from repro.sim.actor import Actor
from repro.sim.loop import SimLoop
from repro.sim.rng import RngRegistry
from repro.sim.timers import RestartableTimer
from repro.sim.trace import TraceRecorder
from repro.smr.applied import AppliedLog, out_of_order
from repro.smr.frontend import ServingFrontend
from repro.snapshot import CompactionPolicy, Snapshot, SnapshotImage
from repro.storage.stable import StableStore

if TYPE_CHECKING:  # craft imports this module's engines: runtime-lazy
    from repro.craft.batching import BatchPolicy, ProposalCoalescer


def _make_coalescer(policy: "BatchPolicy") -> "ProposalCoalescer":
    from repro.craft.batching import ProposalCoalescer
    return ProposalCoalescer(policy)


class ConsensusServer(Actor):
    """A site: one engine, its clients, and its state machine."""

    #: Subclasses bind the engine class.
    engine_cls: type[BaseEngine] = BaseEngine

    def __init__(self, name: str, loop: SimLoop, network: Network,
                 store: StableStore, bootstrap_config: Configuration,
                 timing: TimingConfig, rng: RngRegistry,
                 trace: TraceRecorder,
                 state_machine_factory: Callable[[], Any] | None = None,
                 compaction: CompactionPolicy | None = None,
                 transfer: TransferConfig | None = None,
                 propose_batch: BatchPolicy | None = None
                 ) -> None:
        super().__init__(loop, name)
        self._network = network
        self._store = store
        self._bootstrap_config = bootstrap_config
        self._timing = timing
        self._rng = rng
        self._trace = trace
        # Mirrors BaseEngine._tracing: per-request call sites skip
        # building their trace payloads when the recorder is off.
        self._tracing = trace.enabled
        self._sm_factory = state_machine_factory
        self._compaction = compaction
        self._transfer = transfer if transfer is not None else TransferConfig()
        self.state_machine = state_machine_factory() if state_machine_factory else None
        self.frontend = ServingFrontend(name, loop, network, trace)
        #: Committed entries in apply order (tests/checkers): iterates as
        #: (index, entry) pairs. Its ``floor`` is the index the machine was
        #: last restored to from a snapshot (0 if never); ``_on_apply``
        #: refuses any apply that does not extend it by exactly one.
        self.applied_log = AppliedLog()
        # Lease reads queued until a qualifying quorum-acked beat arrives.
        self._pending_reads: dict[str, tuple[ReadRequest, str, float]] = {}
        # Optional leader-side proposal coalescing (ClientRequest -> engine).
        self._propose_policy = propose_batch
        self._coalescer = (_make_coalescer(propose_batch)
                           if propose_batch is not None else None)
        self._coalesce_timer: RestartableTimer | None = None
        self.engine = self._build_engine()

    # ------------------------------------------------------------------
    # Engine wiring
    # ------------------------------------------------------------------
    def _build_engine(self) -> BaseEngine:
        # The engine's transport is the fabric's send with this site's
        # address bound: no forwarding frame per outbound message.
        ctx = EngineContext(
            name=self.name, loop=self.loop,
            send=partial(self._network.send, self.name),
            rng=self._rng.stream(f"node.{self.name}"), trace=self._trace,
            store=self._store, timing=self._timing,
            on_apply=self._on_apply, on_origin_commit=self._on_origin_commit,
            capture_snapshot=self._capture_snapshot,
            on_snapshot_restore=self._restore_snapshot,
            compaction=self._compaction, transfer=self._transfer)
        engine = type(self).engine_cls(ctx, self._bootstrap_config)
        engine.on_lease_beat = self._on_lease_beat
        return engine

    def start(self) -> None:
        self.engine.start()

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Stop the site. Stable storage survives; volatile state dies."""
        if self._coalesce_timer is not None:
            self._coalesce_timer.cancel()
        self._pending_reads.clear()
        self.engine.stop()
        self.kill()

    def recover(self) -> None:
        """Restart from stable storage with fresh volatile state."""
        self.state_machine = self._sm_factory() if self._sm_factory else None
        # The snapshot restore and the commit replay below the restored
        # commit point repopulate the front-end through
        # _restore_snapshot/_on_apply.
        self.frontend.reset()
        self.applied_log = AppliedLog()
        self._pending_reads.clear()
        if self._coalescer is not None:
            self._coalescer = _make_coalescer(self._propose_policy)
        if self._coalesce_timer is not None:
            self._coalesce_timer.cancel()
        self.engine = self._build_engine()
        self.revive()
        self.engine.start()
        # Probe-before-trust: the restored configuration may be older
        # than the member timeout (evicted while down).
        self.engine.begin_recovery_probe()
        self._trace.record(self.now(), self.name, "node.recovered")

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _capture_snapshot(self) -> SnapshotImage:
        """The server's contribution to a snapshot at the current commit
        point: the machine image plus the exactly-once id set."""
        state = (self.state_machine.snapshot()
                 if self.state_machine is not None else None)
        return SnapshotImage(
            machine_state=state,
            applied_ids=tuple(sorted(self.frontend.applied_ids)))

    def _restore_snapshot(self, snapshot: Snapshot) -> None:
        """Adopt a snapshot image in place of (re)playing the compacted
        prefix: rebuild the machine from the image and resume the applied
        bookkeeping at the snapshot point."""
        if self._sm_factory is not None:
            self.state_machine = self._sm_factory()
            if snapshot.machine_state is not None:
                self.state_machine.restore(snapshot.machine_state)
        self.frontend.restore(snapshot.applied_ids)
        self.applied_log = AppliedLog(snapshot.last_included_index)
        self._trace.record(self.now(), self.name, "node.snapshot_restored",
                           index=snapshot.last_included_index)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def on_message(self, message: Any, sender: str) -> None:
        # ClientRequest is a final class: the exact-type test matches the
        # isinstance check and skips its subclass walk on every delivery.
        if type(message) is ClientRequest:
            if not self.frontend.admit(message, sender):
                return
            coalescer = self._coalescer
            if coalescer is not None and self.engine.role is Role.LEADER:
                if coalescer.add(message.request_id, message, sender,
                                 self.now()):
                    self._flush_proposals()
                else:
                    self._arm_coalesce_timer()
                return
        elif type(message) is ReadRequest:
            self._handle_read(message, sender)
            return
        self.engine.handle(message, sender)

    @property
    def session_duplicates(self) -> int:
        """Retried requests answered from the session table (metrics)."""
        return self.frontend.session_duplicates

    # ------------------------------------------------------------------
    # Proposal coalescing (leader side)
    # ------------------------------------------------------------------
    def _flush_proposals(self) -> None:
        if self._coalesce_timer is not None:
            self._coalesce_timer.cancel()
        for message, sender in self._coalescer.drain():
            self.engine.handle(message, sender)

    def _arm_coalesce_timer(self) -> None:
        deadline = self._coalescer.age_deadline()
        if deadline is None:
            return
        if self._coalesce_timer is None:
            self._coalesce_timer = RestartableTimer(self.loop,
                                                    self._on_coalesce_timeout)
        self._coalesce_timer.reset(max(0.0, deadline - self.now()))

    def _on_coalesce_timeout(self) -> None:
        if self._coalescer.pending_count:
            self._flush_proposals()

    # ------------------------------------------------------------------
    # Lease reads
    # ------------------------------------------------------------------
    def _handle_read(self, message: ReadRequest, sender: str) -> None:
        engine = self.engine
        now = self.now()
        if engine.lease_valid(now):
            # Leaseholder: local state covers every acknowledged write.
            self._serve_read(message, sender, engine.commit_index)
            return
        if not engine.lease_enabled:
            self._network.send_local(self.name, sender, ReadReply(
                request_id=message.request_id, ok=False,
                info="leases_disabled"))
            return
        # Follower (or leaderless/expired): hold the read until a beat
        # sent after its arrival proves freshness. A retried read simply
        # re-arms its arrival time.
        self._pending_reads[message.request_id] = (message, sender, now)

    def _on_lease_beat(self, sent_at: float, leader_commit: int,
                       lease_until: float) -> None:
        """Engine hook: a lease-carrying AppendEntries was absorbed.

        A beat sent at ``sent_at`` proves the leader had committed (and
        this follower has now locally applied) everything acknowledged
        before ``sent_at`` -- so any read that arrived before the beat
        was *sent* linearizes at the beat's commit point.
        """
        if not self._pending_reads:
            return
        if lease_until <= self.now():
            return
        if self.engine.commit_index < leader_commit:
            return  # local apply not caught up yet; wait for the next beat
        ready = [request_id
                 for request_id, (_, _, arrived) in self._pending_reads.items()
                 if arrived < sent_at]
        for request_id in ready:
            message, sender, _ = self._pending_reads.pop(request_id)
            self._serve_read(message, sender, leader_commit)

    def _serve_read(self, message: ReadRequest, sender: str,
                    index: int) -> None:
        machine = self.state_machine
        getter = getattr(machine, "get", None)
        value = getter(message.key) if getter is not None else None
        if self._tracing:
            self._trace.record(self.now(), self.name, "lease.read_served",
                               request_id=message.request_id, index=index)
        self._network.send_local(self.name, sender, ReadReply(
            request_id=message.request_id, ok=True, value=value, index=index))

    # ------------------------------------------------------------------
    # Commit callbacks
    # ------------------------------------------------------------------
    def _on_apply(self, index: int, entry: LogEntry) -> None:
        applied = self.applied_log
        if index != applied.floor + len(applied.entries) + 1:
            raise out_of_order(self.name, index, applied.floor,
                               len(applied.entries))
        applied.entries.append(entry)
        # apply_once is False for a retried request committed twice.
        if (entry.kind is EntryKind.DATA
                and self.frontend.apply_once(entry.entry_id, index)
                and self.state_machine is not None):
            self.state_machine.apply(entry.payload)

    def _on_origin_commit(self, entry: LogEntry, index: int) -> None:
        self.frontend.reply_committed(entry.entry_id, index)
