"""Snapshot & log-compaction subsystem: unit and end-to-end coverage.

End-to-end scenarios check the acceptance contract: a node that falls
behind a compacted leader catches up via InstallSnapshot, crash recovery
through a compacted log reproduces the peers' state machine exactly, and
the safety checkers hold across compaction + churn in all three engines.
"""

import pytest

from repro.consensus.config import Configuration
from repro.consensus.entry import EntryKind, InsertedBy, LogEntry
from repro.consensus.log import RaftLog
from repro.consensus.timing import TimingConfig
from repro.craft.batching import BatchPolicy
from repro.craft.deployment import build_craft_deployment
from repro.errors import ConfigurationError, LogError
from repro.fastraft.server import FastRaftServer
from repro.harness.builder import build_cluster
from repro.harness.checkers import (
    check_images_agree,
    check_state_machine_agreement,
    run_safety_checks,
)
from repro.harness.faults import FaultInjector
from repro.harness.workload import ClosedLoopWorkload
from repro.metrics.summary import tally_snapshots
from repro.net.latency import RegionLatencyModel
from repro.net.topology import Topology
from repro.raft.server import RaftServer
from repro.smr.kv import KVStateMachine
from repro.snapshot import CompactionPolicy, Snapshot, SnapshotStore
from repro.storage.stable import StableStore
from machines import AppendOnlyLog, CounterMachine
from tests.conftest import commit_n, started_cluster


def _entry(entry_id, term=1, kind=EntryKind.DATA):
    return LogEntry(entry_id=entry_id, kind=kind, payload=None,
                    origin="n0", term=term, inserted_by=InsertedBy.LEADER)


def _filled_log(n):
    log = RaftLog()
    for i in range(1, n + 1):
        log.insert(i, _entry(f"e{i}", term=1))
    return log


class TestRaftLogCompaction:
    def test_compact_drops_prefix(self):
        log = _filled_log(10)
        dropped = log.compact_to(6)
        assert dropped == 6
        assert log.snapshot_index == 6
        assert log.snapshot_term == 1
        assert log.first_retained_index == 7
        assert log.get(6) is None
        assert log.get(7) is not None
        assert log.last_index == 10

    def test_term_at_snapshot_point_and_below(self):
        log = _filled_log(5)
        log.compact_to(3)
        assert log.term_at(3) == 1
        with pytest.raises(LogError):
            log.term_at(2)

    def test_insert_below_snapshot_rejected(self):
        log = _filled_log(5)
        log.compact_to(3)
        with pytest.raises(LogError):
            log.insert(2, _entry("late"))

    def test_truncate_into_compacted_prefix_rejected(self):
        log = _filled_log(5)
        log.compact_to(3)
        with pytest.raises(LogError):
            log.truncate_from(2)

    def test_truncate_above_snapshot_keeps_anchor(self):
        log = _filled_log(5)
        log.compact_to(3)
        log.truncate_from(4)
        assert log.last_index == 3  # falls back to the compaction point
        assert log.term_at(3) == 1

    def test_install_snapshot_jumps_past_log_end(self):
        log = _filled_log(3)
        dropped = log.install_snapshot(10, 4)
        assert dropped == 3
        assert log.snapshot_index == 10
        assert log.snapshot_term == 4
        assert log.last_index == 10
        assert list(log) == []

    def test_install_snapshot_keeps_retained_suffix(self):
        log = _filled_log(8)
        log.install_snapshot(5, 1)
        assert [i for i, _ in log] == [6, 7, 8]

    def test_stale_install_is_noop(self):
        log = _filled_log(8)
        log.compact_to(6)
        assert log.install_snapshot(4, 1) == 0
        assert log.snapshot_index == 6

    def test_entries_between_clamps_to_retained(self):
        log = _filled_log(8)
        log.compact_to(4)
        assert [i for i, _ in log.entries_between(1, 8)] == [5, 6, 7, 8]

    def test_duplicate_index_dropped_with_prefix(self):
        log = _filled_log(4)
        log.insert(5, _entry("e2"))  # same id at a second index
        log.compact_to(4)
        assert log.indices_of("e2") == {5}

    def test_config_at_bounded_by_k(self):
        from repro.consensus.entry import ConfigPayload
        log = _filled_log(2)
        log.insert(3, LogEntry(
            entry_id="c1", kind=EntryKind.CONFIG,
            payload=ConfigPayload(members=("a", "b"), version=1),
            origin="n0", term=1, inserted_by=InsertedBy.LEADER))
        log.insert(5, LogEntry(
            entry_id="c2", kind=EntryKind.CONFIG,
            payload=ConfigPayload(members=("a",), version=2),
            origin="n0", term=1, inserted_by=InsertedBy.LEADER))
        none = (0, None, ())
        assert log.config_at(6, 5, none) == (2, ("a",), ())
        # An uncommitted CONFIG above the commit point must not leak
        # into a snapshot of the committed prefix.
        assert log.config_at(5, 4, none) == (1, ("a", "b"), ())
        assert log.config_at(3, 2, none) == none
        # A snapshot base loses ties to the log and wins otherwise.
        assert log.config_at(5, 4, (1, ("z",), ())) == (1, ("a", "b"), ())
        assert log.config_at(5, 4, (2, ("z",), ())) == (2, ("z",), ())


class TestCompactionPolicy:
    def test_threshold_trigger(self):
        policy = CompactionPolicy(threshold=10, retain=2)
        assert not policy.should_compact(9, 0)
        assert policy.should_compact(10, 0)
        assert not policy.should_compact(12, 5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CompactionPolicy(threshold=0)
        with pytest.raises(ConfigurationError):
            CompactionPolicy(threshold=5, retain=5)


class TestSnapshotStore:
    def test_save_and_latest(self):
        store = SnapshotStore(StableStore("n0"))
        snap = Snapshot(last_included_index=5, last_included_term=2,
                        machine_state={"a": 1})
        assert store.save(snap)
        assert store.latest is snap

    def test_save_is_monotonic(self):
        store = SnapshotStore(StableStore("n0"))
        newer = Snapshot(last_included_index=9, last_included_term=2,
                         machine_state=None)
        older = Snapshot(last_included_index=5, last_included_term=2,
                         machine_state=None)
        store.save(newer)
        assert not store.save(older)
        assert store.latest is newer


class TestMachineRestore:
    def test_kv_roundtrip(self):
        machine = KVStateMachine()
        machine.apply({"op": "put", "key": "k", "value": 1})
        image = machine.snapshot()
        other = KVStateMachine()
        other.restore(image)
        assert other.snapshot() == machine.snapshot()
        other.apply({"op": "put", "key": "k2", "value": 2})
        assert machine.get("k2") is None  # restored copy is independent

    def test_append_only_log_roundtrip(self):
        machine = AppendOnlyLog()
        machine.apply("a")
        other = AppendOnlyLog()
        other.restore(machine.snapshot())
        assert other.snapshot() == ("a",)

    def test_counter_roundtrip(self):
        machine = CounterMachine()
        machine.apply({"op": "add", "amount": 5})
        other = CounterMachine()
        other.restore(machine.snapshot())
        assert other.value == 5


POLICY = CompactionPolicy(threshold=10, retain=2)


def _compacting_cluster(server_cls, seed=1, **kwargs):
    kwargs.setdefault("compaction", POLICY)
    return started_cluster(server_cls, seed=seed, **kwargs)


class TestCompactionEndToEnd:
    @pytest.mark.parametrize("server_cls", [RaftServer, FastRaftServer])
    def test_leader_compacts_past_threshold(self, server_cls):
        cluster = _compacting_cluster(server_cls)
        client = cluster.add_client(site=cluster.leader())
        commit_n(cluster, client, 15)
        leader = cluster.servers[cluster.leader()].engine
        assert leader.snapshots_taken >= 1
        assert leader.log.snapshot_index > 0
        assert leader.snapshot_store.latest is not None
        run_safety_checks(cluster.servers.values(), cluster.trace)

    @pytest.mark.parametrize("server_cls", [RaftServer, FastRaftServer])
    def test_commits_unaffected_by_compaction(self, server_cls):
        cluster = _compacting_cluster(server_cls)
        client = cluster.add_client(site=cluster.leader())
        records = commit_n(cluster, client, 25)
        assert all(r.done for r in records)
        cluster.run_for(1.0)
        expected = {f"k{i}": i for i in range(25)}
        for server in cluster.servers.values():
            assert server.state_machine.snapshot() == expected
        run_safety_checks(cluster.servers.values(), cluster.trace)

    @pytest.mark.parametrize("server_cls", [RaftServer, FastRaftServer])
    def test_crash_recovery_through_compaction(self, server_cls):
        """Satellite: a node that snapshots, crashes, and rebuilds from
        StorageFabric must reach the same machine state as its peers."""
        cluster = _compacting_cluster(server_cls)
        client = cluster.add_client(site=cluster.leader())
        commit_n(cluster, client, 18)
        victim = next(n for n in cluster.servers if n != cluster.leader())
        # Let the victim itself snapshot before it crashes.
        assert cluster.run_until(
            lambda: cluster.servers[victim].engine.snapshots_taken >= 1,
            timeout=10.0)
        faults = FaultInjector(cluster)
        faults.crash(victim)
        commit_n(cluster, client, 4)
        faults.recover(victim)
        recovered = cluster.servers[victim]
        # Recovery resumed from the persisted snapshot, not index 1.
        assert recovered.engine.commit_index > 0
        leader_engine = cluster.servers[cluster.leader()].engine
        target = leader_engine.commit_index
        assert cluster.run_until(
            lambda: recovered.engine.commit_index >= target, timeout=30.0)
        cluster.run_for(1.0)
        peers = [s for n, s in cluster.servers.items() if n != victim]
        assert recovered.state_machine.snapshot() in [
            p.state_machine.snapshot() for p in peers]
        assert recovered.state_machine.snapshot() == {
            f"k{i}": i for i in range(18)}
        run_safety_checks(cluster.servers.values(), cluster.trace)
        check_state_machine_agreement(cluster.servers.values())

    @pytest.mark.parametrize("server_cls", [RaftServer, FastRaftServer])
    def test_lagging_node_catches_up_via_install_snapshot(self, server_cls):
        cluster = _compacting_cluster(server_cls)
        client = cluster.add_client(site=cluster.leader())
        commit_n(cluster, client, 3)
        victim = next(n for n in cluster.servers if n != cluster.leader())
        faults = FaultInjector(cluster)
        faults.crash(victim)
        commit_n(cluster, client, 30)  # leader compacts past the victim
        leader = cluster.servers[cluster.leader()].engine
        assert leader.log.snapshot_index > 3
        faults.recover(victim)
        recovered = cluster.servers[victim]
        assert cluster.run_until(
            lambda: recovered.engine.commit_index >= leader.commit_index,
            timeout=60.0)
        assert recovered.engine.snapshots_installed >= 1
        assert recovered.state_machine.get("k29") == 29
        cluster.run_for(1.0)
        run_safety_checks(cluster.servers.values(), cluster.trace)

    def test_fresh_joiner_admitted_via_install_snapshot(self):
        """Fast Raft self-announced join against a compacted leader: the
        joiner's whole history arrives as one snapshot."""
        cluster = _compacting_cluster(FastRaftServer, n_sites=3)
        client = cluster.add_client(site=cluster.leader())
        commit_n(cluster, client, 20)
        joiner = FastRaftServer(
            name="n8", loop=cluster.loop, network=cluster.network,
            store=cluster.fabric.store_for("n8"),
            bootstrap_config=Configuration(tuple(cluster.servers)),
            timing=cluster.timing, rng=cluster.rng, trace=cluster.trace,
            state_machine_factory=KVStateMachine, compaction=POLICY)
        cluster.add_server(joiner)
        joiner.start()
        leader = cluster.servers[cluster.leader()]
        assert cluster.run_until(
            lambda: "n8" in leader.engine.configuration.members,
            timeout=30.0)
        cluster.run_for(1.0)
        assert joiner.engine.snapshots_installed >= 1
        assert joiner.state_machine.snapshot() == {
            f"k{i}": i for i in range(20)}
        run_safety_checks(cluster.servers.values(), cluster.trace)

    def test_snapshot_counters_tally(self):
        cluster = _compacting_cluster(RaftServer)
        client = cluster.add_client(site=cluster.leader())
        commit_n(cluster, client, 15)
        counters = tally_snapshots(s.engine
                                   for s in cluster.servers.values())
        assert counters.taken >= 1
        assert counters.entries_compacted > 0
        assert "taken" in counters.format()

    def test_write_count_reflects_log_mutations(self):
        """The touch() satellite end to end: replicating entries bumps the
        durable write counter even though the log mutates in place."""
        cluster = started_cluster(RaftServer, seed=3)
        baseline = {n: s._store.write_count
                    for n, s in cluster.servers.items()}
        client = cluster.add_client(site=cluster.leader())
        commit_n(cluster, client, 5)
        for name, server in cluster.servers.items():
            assert server._store.write_count > baseline[name]


class TestCraftCompaction:
    def _deployment(self, local_compaction=POLICY):
        topo = Topology.even_clusters(6, ["east", "west"])
        latency = RegionLatencyModel(dict(topo.node_regions),
                                     {("east", "west"): 0.080},
                                     intra_rtt=0.0008, jitter=0.1)
        deployment = build_craft_deployment(
            topo, latency, seed=5,
            batch_policy=BatchPolicy(batch_size=5),
            state_machine_factory=KVStateMachine,
            local_compaction=local_compaction)
        deployment.start_all()
        deployment.run_until_local_leaders(timeout=30.0)
        deployment.run_until_global_ready(timeout=60.0)
        return topo, deployment

    def test_cluster_member_recovers_through_local_snapshot(self):
        topo, deployment = self._deployment()
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
        leader_engine = deployment.servers[
            deployment.local_leader(cluster_a)].local_engine
        assert leader_engine.snapshots_taken >= 1
        target = leader_engine.commit_index
        deployment.servers[victim].recover()
        recovered = deployment.servers[victim]
        assert deployment.run_until(
            lambda: recovered.local_engine.commit_index >= target,
            timeout=120.0)
        assert recovered.local_engine.snapshots_installed >= 1
        # The composite image carried the global state: the recovered
        # member's global machine agrees with peers at the same point.
        deployment.run_for(3.0)
        check_images_agree(
            ((s.global_applied_index, s.global_state_machine.snapshot(),
              s.name) for s in deployment.servers.values()),
            what="global state machines")

    def test_late_region_catches_up_via_gated_global_snapshot(self):
        """The ISSUE's migrated-site scenario: a brand-new single-site
        cluster joins after the global log has been compacted; the global
        leader must ship an InstallSnapshot, which the new cluster
        replicates through its (trivial) local consensus before adoption.
        """
        topo = Topology()
        placements = [("n0", "east"), ("n1", "east"), ("n2", "east"),
                      ("n3", "west"), ("n4", "west"), ("n5", "west"),
                      ("n6", "south")]
        for name, region in placements:
            topo.add_node(name, region=region, cluster=region)
        rtts = {("east", "west"): 0.080, ("east", "south"): 0.120,
                ("west", "south"): 0.150}
        latency = RegionLatencyModel(dict(topo.node_regions), rtts,
                                     intra_rtt=0.0008, jitter=0.1)
        deployment = build_craft_deployment(
            topo, latency, seed=6,
            batch_policy=BatchPolicy(batch_size=5),
            state_machine_factory=KVStateMachine,
            global_compaction=CompactionPolicy(threshold=6, retain=1))
        late = deployment.servers["n6"]
        for name, server in deployment.servers.items():
            if name != "n6":
                server.start()
        assert deployment.run_until(
            lambda: all(deployment.local_leader(c) is not None
                        for c in ("east", "west")), timeout=30.0)
        client = deployment.add_client(
            site=deployment.local_leader("east"))
        workload = ClosedLoopWorkload(client, max_requests=60)
        workload.start()
        assert deployment.run_until(lambda: workload.done, timeout=240.0)

        def global_compacted() -> bool:
            leader = deployment.global_leader()
            if leader is None:
                return False
            engine = deployment.servers[leader].global_engine
            return (engine is not None
                    and engine.log.snapshot_index > 0)
        assert deployment.run_until(global_compacted, timeout=120.0)
        late.start()  # the migrated site comes up and joins the world

        def late_caught_up() -> bool:
            engine = late.global_engine
            return (engine is not None and engine.is_member
                    and late.global_applied_index > 0)
        assert deployment.run_until(late_caught_up, timeout=240.0)
        assert late.global_engine.snapshots_installed >= 1
        # The image arrived through the gated path: a GLOBAL_STATE entry
        # carrying a snapshot committed in the south cluster's local log.
        gated = [e for _, e in late.applied_log
                 if e.kind is EntryKind.GLOBAL_STATE
                 and e.payload.snapshot is not None]
        assert gated, "global snapshot must be gated through local consensus"
        # And the inherited global machine matches a veteran's at the
        # same apply point.
        deployment.run_for(5.0)
        check_images_agree(
            ((s.global_applied_index, s.global_state_machine.snapshot(),
              s.name) for s in deployment.servers.values()),
            what="global state machines")

    def test_view_pruned_on_local_compaction_without_restore(self):
        """ROADMAP follow-up: the materialized global view must be pruned
        when a site *captures* a local snapshot, not only when it adopts
        one -- a leader that never restores would otherwise keep its full
        global history in memory for the life of the process."""
        topo, deployment = self._deployment()
        cluster_a = topo.clusters[0]
        client = deployment.add_client(
            site=deployment.local_leader(cluster_a))
        workload = ClosedLoopWorkload(client, max_requests=50)
        workload.start()
        assert deployment.run_until(lambda: workload.done, timeout=120.0)
        deployment.run_for(3.0)
        compacted_without_restore = [
            s for s in deployment.servers.values()
            if s.local_engine.snapshots_taken >= 1
            and s.local_engine.snapshots_installed == 0
            and s.global_applied_index > 0]
        assert compacted_without_restore, "scenario must exercise capture"
        for server in compacted_without_restore:
            assert server.global_view.snapshot_index > 0, (
                f"{server.name} compacted locally but kept its full "
                f"global view")
        # Pruning must not break global apply: every site still agrees.
        check_images_agree(
            ((s.global_applied_index, s.global_state_machine.snapshot(),
              s.name) for s in deployment.servers.values()),
            what="global state machines")

    def test_global_snapshots_survive_without_compaction_regression(self):
        """Compaction disabled: the craft pipeline behaves as before."""
        topo, deployment = self._deployment(local_compaction=None)
        cluster_a = topo.clusters[0]
        client = deployment.add_client(
            site=deployment.local_leader(cluster_a))
        workload = ClosedLoopWorkload(client, max_requests=12)
        workload.start()
        assert deployment.run_until(lambda: workload.done, timeout=120.0)
        engines = [s.local_engine for s in deployment.servers.values()]
        assert tally_snapshots(engines).taken == 0
