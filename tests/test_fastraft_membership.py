"""Fast Raft self-announced membership: joins, leaves, silent leaves."""

from repro.consensus.engine import Role
from repro.fastraft.server import FastRaftServer
from repro.harness.faults import FaultInjector
from repro.harness.workload import ClosedLoopWorkload
from repro.net.loss import BernoulliLoss
from tests.conftest import (
    add_joining_server,
    assert_safe,
    commit_n,
    started_cluster,
)


class TestJoin:
    def test_site_joins_by_request(self):
        cluster = started_cluster(FastRaftServer, n_sites=3, seed=1)
        client = cluster.add_client(site="n0")
        commit_n(cluster, client, 4)
        joiner = add_joining_server(cluster, "n8")
        leader = cluster.servers[cluster.leader()]
        assert cluster.run_until(
            lambda: "n8" in leader.engine.configuration.members,
            timeout=15.0)
        cluster.run_for(1.0)
        assert joiner.engine.commit_index >= 4
        assert "n8" in joiner.engine.configuration.members
        assert_safe(cluster)

    def test_joiner_caught_up_before_voting(self):
        cluster = started_cluster(FastRaftServer, n_sites=3, seed=1)
        client = cluster.add_client(site="n0")
        commit_n(cluster, client, 5)
        joiner = add_joining_server(cluster, "n8")
        leader = cluster.servers[cluster.leader()]
        cluster.run_until(
            lambda: "n8" in leader.engine.configuration.members,
            timeout=15.0)
        cluster.run_for(0.5)
        # the joiner's state machine replays the full history
        assert joiner.state_machine.snapshot() == {
            f"k{i}": i for i in range(5)}

    def test_joined_site_participates_in_commits(self):
        cluster = started_cluster(FastRaftServer, n_sites=3, seed=1)
        add_joining_server(cluster, "n8")
        leader = cluster.servers[cluster.leader()]
        cluster.run_until(
            lambda: "n8" in leader.engine.configuration.members,
            timeout=15.0)
        client = cluster.add_client(site="n8")
        records = commit_n(cluster, client, 3)
        assert all(r.done for r in records)
        assert_safe(cluster)

    def test_duplicate_join_requests_ignored(self):
        cluster = started_cluster(FastRaftServer, n_sites=3, seed=1)
        add_joining_server(cluster, "n8")
        leader = cluster.servers[cluster.leader()]
        cluster.run_until(
            lambda: "n8" in leader.engine.configuration.members,
            timeout=15.0)
        cluster.run_for(2.0)  # extra join retries must be no-ops
        members = leader.engine.configuration.members
        assert members.count("n8") == 1
        assert_safe(cluster)

    def test_two_joiners_admitted_sequentially(self):
        cluster = started_cluster(FastRaftServer, n_sites=3, seed=1)
        add_joining_server(cluster, "n8")
        add_joining_server(cluster, "n9")
        leader = cluster.servers[cluster.leader()]
        assert cluster.run_until(
            lambda: {"n8", "n9"} <= set(leader.engine.configuration.members),
            timeout=30.0)
        # every config adoption was a single-site change
        previous = {"n0", "n1", "n2"}
        for event in cluster.trace.select_prefix("fastraft.config.adopt"):
            if event.node != leader.name:
                continue
            members = set(event.payload["members"])
            assert len(previous ^ members) <= 1
            previous = members
        assert_safe(cluster)


class TestAnnouncedLeave:
    def test_leave_request_removes_site(self):
        cluster = started_cluster(FastRaftServer, n_sites=5, seed=2)
        leaver = next(n for n in cluster.servers if n != cluster.leader())
        FaultInjector(cluster).announced_leave(leaver)
        leader = cluster.servers[cluster.leader()]
        assert cluster.run_until(
            lambda: leaver not in leader.engine.configuration.members,
            timeout=15.0)
        assert_safe(cluster)

    def test_commits_continue_after_leave(self):
        cluster = started_cluster(FastRaftServer, n_sites=5, seed=2)
        leaver = next(n for n in cluster.servers if n != cluster.leader())
        FaultInjector(cluster).announced_leave(leaver)
        leader = cluster.servers[cluster.leader()]
        cluster.run_until(
            lambda: leaver not in leader.engine.configuration.members,
            timeout=15.0)
        client = cluster.add_client(site=cluster.leader())
        records = commit_n(cluster, client, 3)
        assert all(r.done for r in records)
        assert_safe(cluster)


class TestSilentLeave:
    def test_member_timeout_detects_silent_leave(self):
        cluster = started_cluster(FastRaftServer, n_sites=5, seed=3)
        victim = next(n for n in cluster.servers if n != cluster.leader())
        FaultInjector(cluster).silent_leave(victim)
        leader = cluster.servers[cluster.leader()]
        assert cluster.run_until(
            lambda: victim not in leader.engine.configuration.members,
            timeout=15.0)
        timeouts = [e for e in cluster.trace.events
                    if e.category == "fastraft.member_timeout"]
        assert any(e.payload["site"] == victim for e in timeouts)
        assert_safe(cluster)

    def test_detection_takes_roughly_member_timeout_beats(self):
        cluster = started_cluster(FastRaftServer, n_sites=5, seed=3)
        victim = next(n for n in cluster.servers if n != cluster.leader())
        left_at = cluster.loop.now()
        FaultInjector(cluster).silent_leave(victim)
        cluster.run_until(
            lambda: any(e.category == "fastraft.member_timeout"
                        for e in cluster.trace.events), timeout=15.0)
        detected_at = cluster.loop.now()
        beats = cluster.timing.member_timeout_beats
        interval = cluster.timing.heartbeat_interval
        assert detected_at - left_at >= beats * interval * 0.8
        assert detected_at - left_at <= (beats + 4) * interval

    def test_two_silent_leaves_fig4_scenario(self):
        """Fig. 4: 5 sites, 5% loss, two leave silently; the cluster
        reconfigures to 3 members and the fast track returns."""
        cluster = started_cluster(FastRaftServer, n_sites=5, seed=5,
                                  loss=BernoulliLoss(0.05))
        leader_name = cluster.leader()
        client = cluster.add_client(site=leader_name)
        workload = ClosedLoopWorkload(client, max_requests=150)
        workload.start()
        cluster.run_until(lambda: workload.completed_count >= 20,
                          timeout=60.0)
        victims = [n for n in cluster.servers if n != leader_name][:2]
        faults = FaultInjector(cluster)
        faults.silent_leave(victims[0])
        faults.silent_leave(victims[1])
        leader = cluster.servers[leader_name]
        assert cluster.run_until(
            lambda: leader.engine.configuration.size == 3, timeout=30.0)
        assert cluster.run_until(lambda: workload.done, timeout=240.0)
        # fast quorum of the shrunk config is 3 => fast track usable again
        assert leader.engine.configuration.fast_quorum == 3
        assert_safe(cluster)

    def test_evicted_site_rejoins_on_return(self):
        cluster = started_cluster(FastRaftServer, n_sites=5, seed=7)
        victim = next(n for n in cluster.servers if n != cluster.leader())
        faults = FaultInjector(cluster)
        faults.silent_leave(victim)
        leader = cluster.servers[cluster.leader()]
        cluster.run_until(
            lambda: victim not in leader.engine.configuration.members,
            timeout=15.0)
        client = cluster.add_client(site=cluster.leader())
        commit_n(cluster, client, 3)
        faults.silent_return(victim)
        assert cluster.run_until(
            lambda: victim in leader.engine.configuration.members,
            timeout=30.0)
        cluster.run_for(2.0)
        returned = cluster.servers[victim]
        assert returned.engine.commit_index >= 3
        assert_safe(cluster)

    def test_degraded_reconfig_split_brain_hazard_documented(self):
        """The paper's Section IV-F liveness escape conflicts with its
        Section IV-E safety argument: if the sites a leader declares
        silently-departed are actually alive behind a partition, the
        degraded reconfiguration lets both sides commit independently.
        This test documents that hazard mechanically (found by the
        randomized property tests); disable ``allow_degraded_reconfig``
        for unconditional safety."""
        import pytest as _pytest
        from repro.errors import InvariantViolation
        from repro.harness.checkers import check_committed_prefix_agreement
        cluster = started_cluster(FastRaftServer, n_sites=5, seed=8)
        leader_name = cluster.leader()
        keeper = next(n for n in cluster.servers if n != leader_name)
        others = [n for n in cluster.servers
                  if n not in (leader_name, keeper)]
        faults = FaultInjector(cluster)
        # Partition: {old leader + one follower} vs {majority}.
        faults.partition([[leader_name, keeper], others])
        client_minority = cluster.add_client(site=leader_name,
                                             proposal_timeout=0.5)
        cluster.run_until(lambda: any(
            cluster.servers[n].engine.role is Role.LEADER for n in others),
            timeout=15.0)
        client_majority = cluster.add_client(site=others[0],
                                             proposal_timeout=0.5)
        for i in range(30):
            client_minority.submit({"op": "put", "key": f"m{i}", "value": 1})
            client_majority.submit({"op": "put", "key": f"M{i}", "value": 2})
        cluster.run_for(20.0)
        engines = [cluster.servers[n].engine for n in cluster.servers]
        with _pytest.raises(InvariantViolation):
            check_committed_prefix_agreement(engines)

    def test_leader_survives_majority_silent_leave_with_reconfig(self):
        """Liveness condition from Section IV-F: the leader detects the
        leaves and shrinks quorums via configuration entries."""
        cluster = started_cluster(FastRaftServer, n_sites=5, seed=8)
        leader_name = cluster.leader()
        victims = [n for n in cluster.servers if n != leader_name][:3]
        faults = FaultInjector(cluster)
        for victim in victims:
            faults.silent_leave(victim)
        leader = cluster.servers[leader_name]
        assert cluster.run_until(
            lambda: leader.engine.configuration.size == 2, timeout=60.0)
        client = cluster.add_client(site=leader_name)
        records = commit_n(cluster, client, 2, timeout=30.0)
        assert all(r.done for r in records)
        assert_safe(cluster)
