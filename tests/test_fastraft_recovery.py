"""Fast Raft leader election and the recovery algorithm."""

from repro.consensus.engine import Role
from repro.consensus.entry import InsertedBy
from repro.fastraft.server import FastRaftServer
from repro.harness.faults import FaultInjector
from repro.harness.workload import ClosedLoopWorkload
from repro.net.loss import BernoulliLoss
from tests.conftest import assert_safe, commit_n, live_servers, started_cluster


class TestElection:
    def test_new_leader_after_crash(self):
        cluster = started_cluster(FastRaftServer, seed=2)
        old = cluster.leader()
        FaultInjector(cluster).crash(old)
        new = cluster.run_until_leader(timeout=5.0)
        assert new != old
        assert_safe(cluster)

    def test_recovery_trace_emitted_when_self_approved_exist(self):
        cluster = started_cluster(FastRaftServer, seed=2)
        client = cluster.add_client(site="n0", proposal_timeout=5.0)
        # Submit, give the proposal one round to self-insert everywhere,
        # then kill the leader before its decision tick.
        client.submit({"op": "put", "key": "pending", "value": 1})
        cluster.run_for(0.004)
        FaultInjector(cluster).crash(cluster.leader())
        cluster.run_until_leader(timeout=5.0)
        recoveries = [e for e in cluster.trace.events
                      if e.category == "fastraft.recovery"]
        assert recoveries, "new leader should process self-approved entries"

    def test_pending_proposal_commits_after_leader_crash(self):
        """Self-approved entries survive into the new term via recovery."""
        cluster = started_cluster(FastRaftServer, seed=4)
        origin = next(n for n in cluster.servers if n != cluster.leader())
        client = cluster.add_client(site=origin, proposal_timeout=1.0)
        record = client.submit({"op": "put", "key": "carry", "value": 9})
        cluster.run_for(0.004)  # proposals inserted, votes in flight
        FaultInjector(cluster).crash(cluster.leader())
        assert cluster.run_until(lambda: record.done, timeout=20.0)
        cluster.run_for(1.0)
        assert_safe(cluster)
        live = live_servers(cluster)
        assert all(s.state_machine.get("carry") == 9 for s in live)

    def test_commits_survive_leader_change(self):
        cluster = started_cluster(FastRaftServer, seed=5)
        client = cluster.add_client(site="n2")
        commit_n(cluster, client, 5)
        committed = {i: cluster.servers[cluster.leader()].engine.log.get(i).entry_id
                     for i in range(1, 6)}
        FaultInjector(cluster).crash(cluster.leader())
        cluster.run_until_leader(timeout=5.0)
        cluster.run_for(1.0)
        new_leader = cluster.servers[cluster.leader()].engine
        for index, entry_id in committed.items():
            assert new_leader.log.get(index).entry_id == entry_id
        assert_safe(cluster)

    def test_restamp_inherited_suffix(self):
        """Uncommitted leader-approved entries get the new leader's term."""
        cluster = started_cluster(FastRaftServer, seed=7)
        client = cluster.add_client(site="n1")
        commit_n(cluster, client, 3)
        old_term = cluster.servers[cluster.leader()].engine.current_term
        FaultInjector(cluster).crash(cluster.leader())
        cluster.run_until_leader(timeout=5.0)
        client2 = cluster.add_client(site=cluster.leader())
        cluster.propose_and_wait(client2, {"op": "put", "key": "z",
                                           "value": 1})
        new_engine = cluster.servers[cluster.leader()].engine
        assert new_engine.current_term > old_term
        assert_safe(cluster)

    def test_deposed_leader_rejoins_as_follower(self):
        cluster = started_cluster(FastRaftServer, seed=8)
        old = cluster.leader()
        faults = FaultInjector(cluster)
        faults.crash(old)
        cluster.run_until_leader(timeout=5.0)
        client = cluster.add_client(site=cluster.leader())
        commit_n(cluster, client, 2)
        faults.recover(old)
        cluster.run_for(3.0)
        server = cluster.servers[old]
        assert server.engine.role is Role.FOLLOWER
        assert server.engine.commit_index >= 2
        assert_safe(cluster)


class TestUpToDateRule:
    def test_vote_denied_to_stale_candidate(self):
        """A site cut off before recent commits cannot win election."""
        cluster = started_cluster(FastRaftServer, seed=9)
        leader = cluster.leader()
        stale = next(n for n in cluster.servers if n != leader)
        faults = FaultInjector(cluster)
        others = [n for n in cluster.servers if n != stale]
        faults.partition([others, [stale]])
        client = cluster.add_client(site=leader)
        commit_n(cluster, client, 3)
        faults.heal_partition()
        cluster.run_for(3.0)
        # the stale node must not have displaced the leader's committed log
        assert_safe(cluster)
        assert cluster.servers[stale].engine.commit_index >= 3

    def test_self_approved_entries_do_not_make_a_log_up_to_date(self):
        """Candidate logs compare by leader-approved entries only."""
        cluster = started_cluster(FastRaftServer, seed=10)
        leader_name = cluster.leader()
        client = cluster.add_client(site="n0")
        commit_n(cluster, client, 2)
        cluster.run_for(0.5)
        target = next(n for n in cluster.servers if n != leader_name)
        engine = cluster.servers[target].engine
        # Forge a pile of self-approved entries on one follower.
        from repro.consensus.entry import EntryKind, InsertedBy, LogEntry
        for i in range(10, 20):
            engine._insert_into_log(i, LogEntry(
                entry_id=f"junk{i}", kind=EntryKind.DATA, payload=None,
                origin=target, term=engine.current_term,
                inserted_by=InsertedBy.SELF))
        request = engine._make_vote_request()
        # Its advertised position ignores the junk.
        assert request.last_log_index <= 2 + 1  # commits (+ possible noop)


class TestLossyElections:
    def test_cluster_stabilizes_under_loss_and_crash(self):
        cluster = started_cluster(FastRaftServer, seed=12,
                                  loss=BernoulliLoss(0.05))
        client = cluster.add_client(site="n0")
        workload = ClosedLoopWorkload(client, max_requests=15)
        workload.start()
        cluster.run_until(lambda: workload.completed_count >= 5,
                          timeout=60.0)
        FaultInjector(cluster).crash(cluster.leader())
        assert cluster.run_until(lambda: workload.done, timeout=120.0)
        assert_safe(cluster)
