"""C-Raft end-to-end: two-level consensus, batching, global ordering."""

import pytest

from repro.consensus.entry import EntryKind
from repro.consensus.messages import Envelope, JoinRequest
from repro.craft import build_craft_deployment
from repro.craft.batching import BatchPolicy
from repro.net.latency import RegionLatencyModel
from repro.net.topology import Topology
from repro.harness.checkers import check_election_safety
from repro.harness.faults import FaultInjector
from repro.harness.workload import ClosedLoopWorkload
from repro.smr.kv import KVStateMachine
from repro.snapshot import CompactionPolicy

RTTS = {("us", "eu"): 0.080, ("us", "ap"): 0.170, ("eu", "ap"): 0.220}


def make_deployment(n_sites=6, regions=("us", "eu", "ap"), seed=3,
                    batch_size=5, **kwargs):
    topo = Topology.even_clusters(n_sites, list(regions))
    latency = RegionLatencyModel(dict(topo.node_regions), RTTS,
                                 intra_rtt=0.0008, jitter=0.1)
    return topo, build_craft_deployment(
        topo, latency, seed=seed,
        batch_policy=BatchPolicy(batch_size=batch_size),
        state_machine_factory=KVStateMachine, **kwargs)


def run_workloads(topo, dep, per_cluster=10, batch_size=5):
    workloads = []
    for cluster in topo.clusters:
        client = dep.add_client(site=topo.nodes_in_cluster(cluster)[0])
        workload = ClosedLoopWorkload(
            client, max_requests=per_cluster,
            command_factory=lambda s, c=cluster: {
                "op": "put", "key": f"{c}.{s}", "value": s})
        workload.start()
        workloads.append(workload)
    assert dep.run_until(lambda: all(w.done for w in workloads),
                         timeout=120.0)
    return workloads


class TestBootstrap:
    def test_local_leaders_elected_per_cluster(self):
        topo, dep = make_deployment()
        dep.start_all()
        leaders = dep.run_until_local_leaders()
        assert set(leaders) == set(topo.clusters)
        assert len(set(leaders.values())) == len(topo.clusters)

    def test_global_level_forms(self):
        topo, dep = make_deployment()
        dep.start_all()
        leaders = dep.run_until_local_leaders()
        global_leader = dep.run_until_global_ready(timeout=60.0)
        assert global_leader in leaders.values()

    def test_global_config_is_cluster_leaders(self):
        topo, dep = make_deployment()
        dep.start_all()
        leaders = dep.run_until_local_leaders()
        dep.run_until_global_ready(timeout=60.0)
        dep.run_for(3.0)  # allow seed retirement to settle
        engine = dep.servers[dep.global_leader()].global_engine
        assert set(engine.configuration.members) <= set(dep.servers)
        assert set(leaders.values()) <= set(engine.configuration.members)

    def test_seed_retires_when_not_local_leader(self):
        for seed in range(6):
            topo, dep = make_deployment(seed=seed)
            dep.start_all()
            leaders = dep.run_until_local_leaders()
            seed_site = dep.servers[topo.nodes[0]].global_seed
            if seed_site in leaders.values():
                continue  # seed happens to lead its cluster; nothing to check
            dep.run_until_global_ready(timeout=60.0)
            engine = dep.servers[dep.global_leader()].global_engine
            assert dep.run_until(
                lambda: seed_site not in engine.configuration.members,
                timeout=30.0)
            return
        pytest.skip("seed led its cluster for every tested seed")


class TestGlobalOrdering:
    def test_all_entries_reach_global_log(self):
        topo, dep = make_deployment()
        dep.start_all()
        dep.run_until_local_leaders()
        dep.run_until_global_ready(timeout=60.0)
        run_workloads(topo, dep, per_cluster=10)
        assert dep.run_until(lambda: dep.total_global_applied() >= 30,
                             timeout=120.0)

    def test_global_applied_sequences_agree(self):
        topo, dep = make_deployment()
        dep.start_all()
        dep.run_until_local_leaders()
        dep.run_until_global_ready(timeout=60.0)
        run_workloads(topo, dep, per_cluster=10)
        dep.run_until(lambda: dep.total_global_applied() >= 30, timeout=120.0)
        dep.run_for(10.0)
        sequences = [[(i, e.entry_id) for i, e in s.global_applied]
                     for s in dep.servers.values()]
        longest = max(sequences, key=len)
        for sequence in sequences:
            assert longest[:len(sequence)] == sequence
        check_election_safety(dep.trace)

    def test_every_site_converges_to_same_kv(self):
        topo, dep = make_deployment()
        dep.start_all()
        dep.run_until_local_leaders()
        dep.run_until_global_ready(timeout=60.0)
        run_workloads(topo, dep, per_cluster=10)
        assert dep.run_until(
            lambda: min(len(s.frontend.applied_ids)
                        for s in dep.servers.values()) >= 30,
            timeout=180.0)
        snapshots = {n: s.global_state_machine.snapshot()
                     for n, s in dep.servers.items()}
        reference = snapshots[topo.nodes[0]]
        assert len(reference) == 30
        assert all(s == reference for s in snapshots.values())

    def test_batches_have_configured_size(self):
        topo, dep = make_deployment(batch_size=5)
        dep.start_all()
        dep.run_until_local_leaders()
        dep.run_until_global_ready(timeout=60.0)
        run_workloads(topo, dep, per_cluster=10, batch_size=5)
        dep.run_until(lambda: dep.total_global_applied() >= 30, timeout=120.0)
        observer = dep.servers[dep.global_leader()]
        batches = [e for _, e in observer.global_applied
                   if e.kind is EntryKind.BATCH]
        assert batches
        assert all(len(b.payload) == 5 for b in batches)

    def test_clients_complete_at_local_latency(self):
        """Closed-loop proposers wait only for the local commit: mean
        latency must track intra-cluster timing, not WAN round trips."""
        topo, dep = make_deployment()
        dep.start_all()
        dep.run_until_local_leaders()
        dep.run_until_global_ready(timeout=60.0)
        workloads = run_workloads(topo, dep, per_cluster=10)
        for workload in workloads:
            latencies = workload.latencies()
            mean = sum(latencies) / len(latencies)
            assert mean < 0.150  # local fast-track territory, not 80ms+ RTT


class TestLocalLeaderFailover:
    def test_new_local_leader_joins_global(self):
        topo, dep = make_deployment(n_sites=9, regions=("us", "eu", "ap"),
                                    seed=4)
        dep.start_all()
        leaders = dep.run_until_local_leaders()
        dep.run_until_global_ready(timeout=60.0)
        victim_cluster = topo.clusters[0]
        victim = leaders[victim_cluster]
        dep.servers[victim].crash()
        assert dep.run_until(
            lambda: (dep.local_leader(victim_cluster) is not None
                     and dep.local_leader(victim_cluster) != victim),
            timeout=30.0)
        successor = dep.local_leader(victim_cluster)
        assert dep.run_until(
            lambda: (dep.servers[successor].global_engine is not None
                     and dep.servers[successor].global_engine.is_member),
            timeout=90.0)
        check_election_safety(dep.trace)

    def test_entries_flow_after_failover(self):
        topo, dep = make_deployment(n_sites=9, regions=("us", "eu", "ap"),
                                    seed=4)
        dep.start_all()
        leaders = dep.run_until_local_leaders()
        dep.run_until_global_ready(timeout=60.0)
        victim_cluster = topo.clusters[0]
        victim = leaders[victim_cluster]
        follower_site = [n for n in topo.nodes_in_cluster(victim_cluster)
                         if n != victim][0]
        client = dep.add_client(site=follower_site)
        workload = ClosedLoopWorkload(client, max_requests=12)
        workload.start()
        dep.run_until(lambda: workload.completed_count >= 3, timeout=30.0)
        dep.servers[victim].crash()
        assert dep.run_until(lambda: workload.done, timeout=120.0)
        # the cluster's entries still reach the global log
        assert dep.run_until(
            lambda: sum(1 for s in dep.servers.values() if s.alive
                        for eid in s.frontend.applied_ids
                        if eid.startswith(f"client.{follower_site}")) >= 10,
            timeout=180.0)
        check_election_safety(dep.trace)

    def test_site_without_global_engine_relays_joins_from_snapshot(self):
        """A former local leader comes back from a crash as a follower:
        it runs no global engine. A global-level JoinRequest reaching it
        (a late joiner on a stale contact) is forwarded to the governing
        global members -- not back to the sender, not to itself -- even
        once view pruning has compacted every CONFIG entry and only the
        view's snapshot base still names the members."""
        topo, dep = make_deployment(
            n_sites=9, regions=("us", "eu", "ap"), seed=3, batch_size=2,
            local_compaction=CompactionPolicy(threshold=8, retain=2),
            global_compaction=CompactionPolicy(threshold=4, retain=1))
        dep.start_all()
        leaders = dep.run_until_local_leaders()
        dep.run_until_global_ready(timeout=60.0)
        dep.run_for(3.0)
        victim = leaders["eu"]
        assert victim != dep.global_leader()
        faults = FaultInjector(dep)
        faults.crash(victim)
        dep.run_for(5.0)
        faults.recover(victim)
        dep.run_until_local_leaders(timeout=30.0)
        dep.run_until_global_ready(timeout=120.0)
        dep.run_for(3.0)
        site = dep.servers[victim]
        assert site.global_engine is None
        assert dep.local_leader("eu") != victim
        view = site.global_view
        none = (0, None, ())
        assert view.config_at(view.last_index + 1, view.last_index,
                              none) == none  # pruned
        members = dep.servers[dep.global_leader()].global_engine \
            .configuration.members
        sender = members[0]
        forwarded = []
        send = dep.network.send

        def record(src, dst, message):
            if (src == victim and type(message) is Envelope
                    and message.level == "global"):
                forwarded.append((dst, message.inner))
            send(src, dst, message)

        dep.network.send = record
        request = JoinRequest(site=sender)
        dep.network.send(sender, victim, Envelope("global", "global",
                                                  request))
        dep.run_for(0.05)
        assert forwarded
        assert sorted(forwarded) == sorted(
            (m, request) for m in members if m not in (sender, victim))


class TestTwoMemberGlobalDeadlock:
    """Formerly a strict xfail pinning the 2-member global-configuration
    deadlock (ROADMAP, 'Global-membership deadlock'): with exactly two
    cluster leaders in the global configuration, a crashed one could not
    be excluded (quorum 2-of-2) and the degraded-reconfig guard rightly
    refused to shrink, so the successor's global join never completed.
    Fixed by the standing non-voting observer (the retired bootstrap
    seed) acting as election/CONFIG tiebreaker for degenerate voting
    sets, plus the joining-leader exclusion quorum -- see README 'Global
    membership liveness'."""

    def _two_cluster_deployment(self):
        topo = Topology.even_clusters(6, ["east", "west"])
        latency = RegionLatencyModel(dict(topo.node_regions),
                                     {("east", "west"): 0.080},
                                     intra_rtt=0.0008, jitter=0.1)
        return topo, build_craft_deployment(
            topo, latency, seed=18, batch_policy=BatchPolicy(batch_size=5),
            state_machine_factory=KVStateMachine)

    def test_successor_joins_global_after_leader_crash(self):
        topo, dep = self._two_cluster_deployment()
        dep.start_all()
        leaders = dep.run_until_local_leaders(timeout=30.0)
        dep.run_until_global_ready(timeout=60.0)
        assert dep.global_observers()  # the retired seed stands by
        victim = leaders["east"]
        dep.servers[victim].crash()
        assert dep.run_until(
            lambda: (dep.local_leader("east") is not None
                     and dep.local_leader("east") != victim),
            timeout=30.0)
        successor = dep.local_leader("east")
        # The join completes only once the dead leader's exclusion can
        # commit -- the observer tiebreaker supplies the missing vote.
        assert dep.run_until(
            lambda: (dep.servers[successor].global_engine is not None
                     and dep.servers[successor].global_engine.is_member),
            timeout=60.0)

    def test_exclusion_commits_and_batches_flow_without_dead_site(self):
        topo, dep = self._two_cluster_deployment()
        dep.start_all()
        leaders = dep.run_until_local_leaders(timeout=30.0)
        dep.run_until_global_ready(timeout=60.0)
        victim = leaders["east"]
        dep.servers[victim].crash()
        dep.run_until(lambda: (dep.local_leader("east") is not None
                               and dep.local_leader("east") != victim),
                      timeout=30.0)

        def victim_excluded():
            leader = dep.global_leader()
            if leader is None:
                return False
            engine = dep.servers[leader].global_engine
            return victim not in engine.configuration.members
        assert dep.run_until(victim_excluded, timeout=60.0)
        # Batches from both surviving clusters reach the global log
        # while the dead site never returns.
        workloads = []
        for cluster in topo.clusters:
            site = next(n for n in topo.nodes_in_cluster(cluster)
                        if n != victim and dep.servers[n].alive)
            client = dep.add_client(site=site)
            workload = ClosedLoopWorkload(
                client, max_requests=10,
                command_factory=lambda s, c=cluster: {
                    "op": "put", "key": f"{c}.{s}", "value": s})
            workload.start()
            workloads.append(workload)
        assert dep.run_until(lambda: all(w.done for w in workloads),
                             timeout=120.0)
        assert dep.run_until(lambda: dep.total_global_applied() >= 20,
                             timeout=120.0)
        assert not dep.servers[victim].alive
        check_election_safety(dep.trace)
