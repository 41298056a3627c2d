"""Chunked InstallSnapshot transfer and the size-aware cost model.

Unit coverage for the chunking vocabulary (offsets, assembler, sender),
the message/store sizing, and the bandwidth latency decorator; protocol
coverage for the follower's discard rules (term bump, newer snapshot,
stale leader); and seeded end-to-end rejoins through chunked transfer in
all three engines -- including a leader crash mid-transfer.
"""

import random

import pytest

from repro.consensus.config import Configuration, TransferConfig
from repro.consensus.engine import EngineContext
from repro.consensus.entry import (
    ConfigPayload,
    EntryKind,
    InsertedBy,
    LogEntry,
)
from repro.consensus.messages import (
    AppendEntries,
    Envelope,
    InstallSnapshotChunk,
    InstallSnapshotChunkAck,
    InstallSnapshotRequest,
    InstallSnapshotResponse,
    RequestVote,
)
from repro.consensus.timing import TimingConfig
from repro.craft.batching import BatchPolicy
from repro.craft.deployment import build_craft_deployment
from repro.errors import ConfigurationError, ConsensusError, NetworkError
from repro.fastraft.engine import FastRaftEngine
from repro.fastraft.server import FastRaftServer
from repro.harness.builder import build_cluster
from repro.harness.checkers import (
    check_images_agree,
    check_state_machine_agreement,
    run_safety_checks,
)
from repro.harness.faults import FaultInjector
from repro.harness.workload import ClosedLoopWorkload
from repro.net.latency import BandwidthLatencyModel, ConstantLatency
from repro.net.latency import RegionLatencyModel
from repro.net.sizes import payload_size
from repro.net.topology import Topology
from repro.raft.engine import ClassicRaftEngine
from repro.raft.server import RaftServer
from repro.sim.loop import SimLoop
from repro.sim.trace import TraceRecorder
from repro.smr.kv import KVStateMachine
from repro.snapshot import CompactionPolicy, Snapshot
from repro.snapshot.chunking import (
    ChunkAssembler,
    chunk_offsets,
    deserialize_snapshot,
    serialize_snapshot,
    snapshot_wire_size,
)
from repro.storage.stable import StableStore
from tests.conftest import commit_n, started_cluster


# ----------------------------------------------------------------------
# Chunking vocabulary
# ----------------------------------------------------------------------
class TestChunkOffsets:
    def test_covers_range_exactly(self):
        offsets = chunk_offsets(10, 3)
        assert offsets == [(0, 3), (3, 3), (6, 3), (9, 1)]
        assert sum(length for _, length in offsets) == 10

    def test_single_chunk_when_size_fits(self):
        assert chunk_offsets(5, 10) == [(0, 5)]

    def test_empty_payload_still_one_chunk(self):
        assert chunk_offsets(0, 4) == [(0, 0)]

    def test_chunk_size_validated(self):
        with pytest.raises(ConsensusError):
            chunk_offsets(10, 0)


class TestChunkAssembler:
    def _assembler(self, data, chunk_size):
        return ChunkAssembler(last_included_index=7, last_included_term=2,
                              leader_term=3, total_size=len(data))

    def test_out_of_order_reassembly(self):
        data = bytes(range(50))
        asm = self._assembler(data, 7)
        pieces = chunk_offsets(len(data), 7)
        for offset, length in reversed(pieces):
            assert not asm.complete
            asm.add(offset, data[offset:offset + length])
        assert asm.complete
        assert asm.assemble() == data

    def test_duplicates_ignored(self):
        data = b"abcdefgh"
        asm = self._assembler(data, 4)
        assert asm.add(0, data[:4])
        assert not asm.add(0, data[:4])
        assert asm.received_bytes == 4
        asm.add(4, data[4:])
        assert asm.assemble() == data

    def test_incomplete_assemble_raises(self):
        asm = self._assembler(b"abcdefgh", 4)
        asm.add(0, b"abcd")
        with pytest.raises(ConsensusError):
            asm.assemble()

    def test_snapshot_roundtrip_through_chunks(self):
        snapshot = Snapshot(last_included_index=12, last_included_term=3,
                            machine_state={"k": list(range(40))},
                            applied_ids=("a", "b"), origin="n1")
        data = serialize_snapshot(snapshot)
        asm = ChunkAssembler(12, 3, 1, len(data))
        for offset, length in chunk_offsets(len(data), 13):
            asm.add(offset, data[offset:offset + length])
        assert deserialize_snapshot(asm.assemble()) == snapshot


class TestTransferConfig:
    def test_defaults_monolithic(self):
        assert not TransferConfig().chunked

    def test_chunked_flag(self):
        assert TransferConfig(chunk_size=1024).chunked

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TransferConfig(chunk_size=0)
        with pytest.raises(ConfigurationError):
            TransferConfig(chunk_window=0)


# ----------------------------------------------------------------------
# Size-aware cost model
# ----------------------------------------------------------------------
def _entry(entry_id, payload=None):
    return LogEntry(entry_id=entry_id, kind=EntryKind.DATA, payload=payload,
                    origin="n0", term=1, inserted_by=InsertedBy.LEADER)


class TestPayloadSizes:
    def test_append_entries_grows_with_batch(self):
        empty = AppendEntries(term=1, leader_id="n0", prev_log_index=0,
                              prev_log_term=0, entries=(), leader_commit=0)
        loaded = AppendEntries(
            term=1, leader_id="n0", prev_log_index=0, prev_log_term=0,
            entries=tuple((i, _entry(f"e{i}", "x" * 100))
                          for i in range(1, 11)),
            leader_commit=0)
        assert payload_size(loaded) > payload_size(empty) + 1000

    def test_chunk_size_tracks_data(self):
        small = InstallSnapshotChunk(term=1, leader_id="n0",
                                     last_included_index=5,
                                     last_included_term=1, offset=0,
                                     data=b"x" * 10, total_size=10,
                                     done=True)
        big = InstallSnapshotChunk(term=1, leader_id="n0",
                                   last_included_index=5,
                                   last_included_term=1, offset=0,
                                   data=b"x" * 1000, total_size=1000,
                                   done=True)
        assert payload_size(big) - payload_size(small) == 990

    def test_monolithic_matches_chunked_total(self):
        """Both transfer modes put the same image bytes on the wire."""
        snapshot = Snapshot(last_included_index=9, last_included_term=2,
                            machine_state={f"k{i}": i for i in range(50)})
        mono = InstallSnapshotRequest(term=1, leader_id="n0",
                                      snapshot=snapshot)
        wire = snapshot_wire_size(snapshot)
        data = serialize_snapshot(snapshot)
        chunk_bytes = sum(
            length for _, length in chunk_offsets(len(data), 64))
        assert chunk_bytes == wire
        assert payload_size(mono) >= wire

    def test_envelope_delegates_to_inner(self):
        chunk = InstallSnapshotChunk(term=1, leader_id="n0",
                                     last_included_index=5,
                                     last_included_term=1, offset=0,
                                     data=b"y" * 500, total_size=500,
                                     done=True)
        enveloped = Envelope("global", "global", chunk)
        assert payload_size(enveloped) > payload_size(chunk)
        assert payload_size(enveloped) < payload_size(chunk) + 100


class TestBandwidthLatencyModel:
    def test_adds_serialization_delay(self):
        model = BandwidthLatencyModel(ConstantLatency(0.010), 1000.0)
        rng = random.Random(0)
        assert model.transfer_delay(rng, "a", "b", 0) == pytest.approx(0.010)
        assert model.transfer_delay(rng, "a", "b", 500) == pytest.approx(
            0.010 + 0.5)

    def test_bandwidth_validated(self):
        with pytest.raises(NetworkError):
            BandwidthLatencyModel(ConstantLatency(0.01), 0.0)

    def test_network_charges_payload_size(self):
        """A big message takes measurably longer than a small one."""
        from repro.net.network import Network
        from repro.sim.actor import Actor
        from repro.sim.rng import RngRegistry

        received = {}

        class Sink(Actor):
            def on_message(self, message, sender):
                received[len(message)] = self.loop.now()

        loop = SimLoop()
        net = Network(loop, RngRegistry(1),
                      BandwidthLatencyModel(ConstantLatency(0.001), 1000.0))
        sink = Sink(loop, "b")
        net.register(sink)
        net.send("a", "b", b"x" * 10)
        net.send("a", "b", b"x" * 1000)
        loop.run_for(5.0)
        assert received[10] == pytest.approx(0.001 + 0.010 + 0.032)
        assert received[1000] == pytest.approx(0.001 + 1.0 + 0.032)
        assert net.stats.bytes_sent == 10 + 1000 + 2 * 32  # + headers

    def test_size_blind_model_skips_sizing(self):
        """Without a size-aware model nothing is charged or counted."""
        cluster = started_cluster(RaftServer, seed=2)
        assert cluster.network.stats.bytes_sent == 0


class TestWeightedWrites:
    def test_set_weighs_payload(self):
        store = StableStore("n0")
        store.set("term", 3)
        small = store.write_bytes
        store.set("snapshot", Snapshot(
            last_included_index=50, last_included_term=2,
            machine_state={f"k{i}": "v" * 100 for i in range(50)}))
        assert store.write_bytes - small > 100 * small

    def test_touch_takes_size(self):
        store = StableStore("n0")
        store.set("log", [])
        before = store.write_bytes
        store.touch("log", size=4096)
        assert store.write_bytes == before + 4096
        assert store.write_count == 2


# ----------------------------------------------------------------------
# Follower protocol: discard rules (driven engine, no cluster)
# ----------------------------------------------------------------------
def _snapshot(index, term=1, origin="n1", payload=None):
    return Snapshot(last_included_index=index, last_included_term=term,
                    machine_state=payload or {"upto": index}, origin=origin)


def _chunks_for(snapshot, term, leader, chunk_size=16):
    data = serialize_snapshot(snapshot)
    pieces = chunk_offsets(len(data), chunk_size)
    last_offset = pieces[-1][0]
    return [InstallSnapshotChunk(
        term=term, leader_id=leader,
        last_included_index=snapshot.last_included_index,
        last_included_term=snapshot.last_included_term,
        offset=offset, data=data[offset:offset + length],
        total_size=len(data), done=offset == last_offset)
        for offset, length in pieces]


class DrivenFollower:
    """An engine (classic Raft unless ``engine_cls`` says otherwise) fed
    messages by hand; sends are collected."""

    def __init__(self, config: Configuration | None = None,
                 engine_cls=ClassicRaftEngine):
        self.loop = SimLoop()
        self.sent = []
        ctx = EngineContext(
            name="f1", loop=self.loop,
            send=lambda dst, message: self.sent.append((dst, message)),
            rng=random.Random(0), trace=TraceRecorder(enabled=True),
            store=StableStore("f1"), timing=TimingConfig(),
            transfer=TransferConfig(chunk_size=16))
        self.engine = engine_cls(
            ctx, config or Configuration(("f1", "n1", "n2")))

    def deliver(self, message, sender):
        self.engine.handle(message, sender)

    def acks(self):
        return [m for _, m in self.sent
                if isinstance(m, InstallSnapshotChunkAck)]

    def responses(self):
        return [m for _, m in self.sent
                if isinstance(m, InstallSnapshotResponse)]


class TestFollowerDiscardRules:
    def test_chunks_buffer_until_complete_then_install(self):
        follower = DrivenFollower()
        chunks = _chunks_for(_snapshot(10), term=1, leader="n1")
        assert len(chunks) > 3
        for chunk in chunks[:-1]:
            follower.deliver(chunk, "n1")
            assert follower.engine.snapshots_installed == 0
        assert follower.engine._chunk_assembler is not None
        follower.deliver(chunks[-1], "n1")
        assert follower.engine._chunk_assembler is None
        assert follower.engine.snapshots_installed == 1
        assert follower.engine.commit_index == 10
        assert len(follower.acks()) == len(chunks)
        assert [r for r in follower.responses() if r.success]

    def test_unordered_and_duplicated_chunks_install_once(self):
        follower = DrivenFollower()
        chunks = _chunks_for(_snapshot(10), term=1, leader="n1")
        for chunk in reversed(chunks):
            follower.deliver(chunk, "n1")
        for chunk in chunks:  # a full duplicate wave
            follower.deliver(chunk, "n1")
        assert follower.engine.snapshots_installed == 1
        assert follower.engine.commit_index == 10

    def test_partial_transfer_discarded_on_term_bump(self):
        follower = DrivenFollower()
        chunks = _chunks_for(_snapshot(10), term=1, leader="n1")
        for chunk in chunks[:2]:
            follower.deliver(chunk, "n1")
        assert follower.engine._chunk_assembler is not None
        follower.deliver(RequestVote(term=2, candidate_id="n2",
                                     last_log_index=20, last_log_term=2),
                         "n2")
        assert follower.engine._chunk_assembler is None
        # the old leader's stragglers are rejected, not buffered
        for chunk in chunks[2:]:
            follower.deliver(chunk, "n1")
        assert follower.engine._chunk_assembler is None
        assert follower.engine.snapshots_installed == 0
        assert any(not ack.success for ack in follower.acks())

    def test_newer_snapshot_supersedes_partial(self):
        follower = DrivenFollower()
        old = _chunks_for(_snapshot(10), term=1, leader="n1")
        new = _chunks_for(_snapshot(20), term=1, leader="n1")
        for chunk in old[:2]:
            follower.deliver(chunk, "n1")
        for chunk in new:
            follower.deliver(chunk, "n1")
        assert follower.engine.snapshots_installed == 1
        assert follower.engine.commit_index == 20
        # stragglers of the superseded transfer die quietly
        for chunk in old[2:]:
            follower.deliver(chunk, "n1")
        assert follower.engine.commit_index == 20
        assert follower.engine.snapshots_installed == 1

    def test_new_leader_restarts_transfer_cleanly(self):
        """Mid-transfer leader change: the partial from the old leader is
        discarded and the new leader's transfer installs its own image."""
        follower = DrivenFollower()
        old = _chunks_for(_snapshot(10, origin="n1"), term=1, leader="n1")
        for chunk in old[:3]:
            follower.deliver(chunk, "n1")
        replacement = _snapshot(12, term=2, origin="n2")
        for chunk in _chunks_for(replacement, term=2, leader="n2"):
            follower.deliver(chunk, "n2")
        assert follower.engine.snapshots_installed == 1
        assert follower.engine.commit_index == 12
        assert follower.engine.snapshot_store.latest.origin == "n2"

    def test_partial_transfer_discarded_on_observer_promotion(self):
        """Mid-transfer observer-to-voter promotion: the governing
        config changes under the partial buffer, so it is discarded
        (same family as the term-bump / newer-snapshot rules) and the
        transfer restarts cleanly from the leader's next chunks. (Fast
        Raft: classic Raft's configuration never changes.)"""
        follower = DrivenFollower(
            config=Configuration(("n1", "n2"), observers=("f1",)),
            engine_cls=FastRaftEngine)
        assert not follower.engine.is_member
        chunks = _chunks_for(_snapshot(10), term=1, leader="n1")
        for chunk in chunks[:2]:
            follower.deliver(chunk, "n1")
        assert follower.engine._chunk_assembler is not None
        # The leader promotes f1: a CONFIG entry carrying it as a voter.
        promotion = LogEntry(
            entry_id="n1:config9.t1", kind=EntryKind.CONFIG,
            payload=ConfigPayload(members=("f1", "n1", "n2"), version=9),
            origin="n1", term=1, inserted_by=InsertedBy.LEADER)
        follower.deliver(AppendEntries(
            term=1, leader_id="n1", prev_log_index=0, prev_log_term=0,
            entries=((1, promotion),), leader_commit=0), "n1")
        assert follower.engine.is_member
        assert follower.engine._chunk_assembler is None  # partial gone
        # A fresh full transfer still installs.
        for chunk in chunks:
            follower.deliver(chunk, "n1")
        assert follower.engine.snapshots_installed == 1
        assert follower.engine.commit_index == 10

    def test_demotion_keeps_partial_transfer(self):
        """Only the observer-to-voter direction voids the buffer: an
        unrelated config change mid-transfer (here: some other site
        joining) leaves the reassembly untouched."""
        follower = DrivenFollower(engine_cls=FastRaftEngine)
        chunks = _chunks_for(_snapshot(10), term=1, leader="n1")
        for chunk in chunks[:2]:
            follower.deliver(chunk, "n1")
        join = LogEntry(
            entry_id="n1:config9.t1", kind=EntryKind.CONFIG,
            payload=ConfigPayload(members=("f1", "n1", "n2", "n3"),
                                  version=9),
            origin="n1", term=1, inserted_by=InsertedBy.LEADER)
        follower.deliver(AppendEntries(
            term=1, leader_id="n1", prev_log_index=0, prev_log_term=0,
            entries=((1, join),), leader_commit=0), "n1")
        assert "n3" in follower.engine.configuration.members
        assert follower.engine._chunk_assembler is not None

    def test_chunks_for_covered_prefix_full_confirmed(self):
        """A follower already past the snapshot point short-circuits with
        a full InstallSnapshotResponse so the leader stops shipping."""
        follower = DrivenFollower()
        for chunk in _chunks_for(_snapshot(10), term=1, leader="n1"):
            follower.deliver(chunk, "n1")
        assert follower.engine.commit_index == 10
        follower.sent.clear()
        follower.deliver(_chunks_for(_snapshot(5), term=1, leader="n1")[0],
                         "n1")
        responses = follower.responses()
        assert responses and responses[-1].success
        assert responses[-1].last_included_index == 5
        assert not follower.acks()


# ----------------------------------------------------------------------
# End-to-end: chunked rejoin in all three engines
# ----------------------------------------------------------------------
POLICY = CompactionPolicy(threshold=10, retain=2)
TRANSFER = TransferConfig(chunk_size=512, chunk_window=4)


class TestChunkedCatchupEndToEnd:
    @pytest.mark.parametrize("server_cls", [RaftServer, FastRaftServer])
    def test_rejoin_via_chunked_install(self, server_cls):
        cluster = build_cluster(
            server_cls, n_sites=5, seed=9,
            state_machine_factory=KVStateMachine, compaction=POLICY,
            transfer=TRANSFER, bandwidth=500_000.0)
        cluster.start_all()
        cluster.run_until_leader()
        client = cluster.add_client(site=cluster.leader())
        commit_n(cluster, client, 3)
        victim = next(n for n in cluster.servers if n != cluster.leader())
        faults = FaultInjector(cluster)
        faults.crash(victim)
        commit_n(cluster, client, 30)
        leader = cluster.servers[cluster.leader()].engine
        assert leader.log.snapshot_index > 3
        faults.recover(victim)
        recovered = cluster.servers[victim]
        assert cluster.run_until(
            lambda: recovered.engine.commit_index >= leader.commit_index,
            timeout=60.0)
        assert recovered.engine.snapshots_installed >= 1
        chunks = sum(s.engine.snapshot_chunks_sent
                     for s in cluster.servers.values())
        assert chunks > 1, "the transfer must actually have been chunked"
        cluster.run_for(1.0)
        run_safety_checks(cluster.servers.values(), cluster.trace)
        check_state_machine_agreement(cluster.servers.values())
        assert recovered.state_machine.get("k29") == 29

    def test_craft_member_rejoin_via_chunked_install(self):
        topo = Topology.even_clusters(6, ["east", "west"])
        latency = RegionLatencyModel(dict(topo.node_regions),
                                     {("east", "west"): 0.080},
                                     intra_rtt=0.0008, jitter=0.1)
        deployment = build_craft_deployment(
            topo, latency, seed=5, batch_policy=BatchPolicy(batch_size=5),
            state_machine_factory=KVStateMachine, local_compaction=POLICY,
            transfer=TRANSFER, bandwidth=2_000_000.0)
        deployment.start_all()
        deployment.run_until_local_leaders(timeout=30.0)
        deployment.run_until_global_ready(timeout=60.0)
        cluster_a = topo.clusters[0]
        leader_a = deployment.local_leader(cluster_a)
        client = deployment.add_client(site=leader_a)
        workload = ClosedLoopWorkload(client, max_requests=40)
        workload.start()
        assert deployment.run_until(
            lambda: workload.completed_count >= 5, timeout=60.0)
        victim = next(n for n in topo.nodes_in_cluster(cluster_a)
                      if n != leader_a)
        deployment.servers[victim].crash()
        assert deployment.run_until(lambda: workload.done, timeout=120.0)
        target = deployment.servers[
            deployment.local_leader(cluster_a)].local_engine.commit_index
        deployment.servers[victim].recover()
        recovered = deployment.servers[victim]
        assert deployment.run_until(
            lambda: recovered.local_engine.commit_index >= target,
            timeout=120.0)
        assert recovered.local_engine.snapshots_installed >= 1
        assert sum(s.local_engine.snapshot_chunks_sent
                   for s in deployment.servers.values()) > 1
        deployment.run_for(3.0)
        check_images_agree(
            ((s.global_applied_index, s.global_state_machine.snapshot(),
              s.name) for s in deployment.servers.values()),
            what="global state machines")

    def test_leader_crash_mid_transfer(self):
        """The shipping leader dies with chunks in flight; the follower
        discards the partial and converges through the successor."""
        cluster = build_cluster(
            RaftServer, n_sites=5, seed=13,
            state_machine_factory=KVStateMachine, compaction=POLICY,
            latency=ConstantLatency(0.020),
            transfer=TransferConfig(chunk_size=1024, chunk_window=1),
            bandwidth=60_000.0)
        cluster.start_all()
        cluster.run_until_leader()
        leader_name = cluster.leader()
        client = cluster.add_client(site=leader_name)
        # Distinct values per key: pickle memoizes repeated objects, so
        # identical values would collapse into a tiny image.
        value = "x" * 512
        for i in range(3):
            cluster.propose_and_wait(
                client, {"op": "put", "key": f"k{i}", "value": f"{value}{i}"})
        victim = next(n for n in cluster.servers if n != leader_name)
        faults = FaultInjector(cluster)
        faults.crash(victim)
        for i in range(3, 30):
            cluster.propose_and_wait(
                client, {"op": "put", "key": f"k{i}", "value": f"{value}{i}"},
                timeout=60.0)
        leader = cluster.servers[leader_name]
        assert leader.engine.log.snapshot_index > 3
        faults.recover(victim)
        # Wait for the transfer to be genuinely mid-flight, then kill
        # the leader before the follower can have completed it.
        started = cluster.run_until(
            lambda: (victim in leader.engine._chunk_senders
                     and len(leader.engine._chunk_senders[victim].acked)
                     >= 1),
            timeout=30.0)
        assert started, "transfer never started"
        sender = leader.engine._chunk_senders[victim]
        assert not sender.done, "transfer finished too fast to interrupt"
        faults.crash(leader_name)
        recovered = cluster.servers[victim]

        def caught_up():
            name = cluster.leader()
            if name is None:
                return False
            return (recovered.engine.commit_index
                    >= cluster.servers[name].engine.commit_index)
        assert cluster.run_until(caught_up, timeout=120.0)
        assert recovered.engine.snapshots_installed >= 1
        discards = [e for e in cluster.trace.events
                    if e.category == "raft.snapshot.transfer_discarded"
                    and e.node == victim]
        assert discards, "the partial transfer should have been discarded"
        cluster.run_for(1.0)
        live = [s for s in cluster.servers.values()
                if s.name != leader_name]
        run_safety_checks(cluster.servers.values(), cluster.trace)
        check_state_machine_agreement(live)
        assert recovered.state_machine.get("k29") == f"{value}29"
