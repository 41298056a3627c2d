"""Serving layer: session dedup, lease reads, proposal coalescing.

The exactly-once contract under test: a session client retries every
request until committed (at-least-once delivery); the server side must
apply each request to the state machine exactly once and answer retried
duplicates without re-entering consensus -- across leader failover,
crash recovery, and snapshot restore. Lease reads must observe a
linearizable history.
"""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.config import Configuration
from repro.consensus.messages import ClientReply, ClientRequest
from repro.consensus.timing import TimingConfig
from repro.craft.batching import BatchPolicy
from repro.fastraft.server import FastRaftServer
from repro.harness.faults import FaultInjector
from repro.raft.server import RaftServer
from repro.smr.kv import KVCommand
from repro.smr.sessions import SessionTable, parse_session
from repro.snapshot import CompactionPolicy
from tests.conftest import (Inbox, live_servers, session_applied,
                            started_cluster)


def duplicate_of(record, client):
    """Re-create the exact wire message a session client retries with."""
    return ClientRequest(request_id=record.request_id,
                         command=record.command,
                         session_id=client.name,
                         sequence=record.sequence)


class TestParseSession:
    def test_session_ids_parse(self):
        assert parse_session("c0.7") == ("c0", 7)
        assert parse_session("s12.read.3") == ("s12.read", 3)

    def test_non_session_ids_rejected(self):
        assert parse_session("noop") is None          # no separator
        assert parse_session(".5") is None            # empty session
        assert parse_session("c0.x") is None          # non-integer tail
        assert parse_session("c0.-1") is None         # negative sequence


class TestSessionTable:
    def test_observe_and_lookup(self):
        table = SessionTable()
        table.observe("c0.1", 10)
        table.observe("c0.2", 11)
        assert table.last_applied("c0") == (2, 11)
        assert table.is_duplicate("c0", 1)
        assert table.is_duplicate("c0", 2)
        assert not table.is_duplicate("c0", 3)
        assert list(table._sessions) == ["c0"]

    def test_unknown_session_is_never_duplicate(self):
        table = SessionTable()
        assert table.last_applied("ghost") == (0, 0)
        assert not table.is_duplicate("ghost", 1)

    def test_out_of_order_observe_keeps_max(self):
        table = SessionTable()
        table.observe("c0.5", 50)
        table.observe("c0.3", 30)  # stale replay must not regress
        assert table.last_applied("c0") == (5, 50)

    def test_non_session_ids_ignored(self):
        table = SessionTable()
        table.observe("noop", 1)
        table.observe("batch!3", 2)
        assert table._sessions == {}


class TestDuplicateDelivery:
    def test_duplicate_answered_without_consensus(self):
        cluster = started_cluster(FastRaftServer, seed=1)
        client = cluster.add_client(site="n0", session=True)
        record = cluster.propose_and_wait(client,
                                          KVCommand.append("k", "x"))
        server = cluster.servers["n0"]
        # a real retry fires a full proposal timeout later -- long after
        # the commit has propagated and applied at the attached site
        assert cluster.run_until(
            lambda: session_applied(server, client.name), timeout=10.0)
        commits_before = server.engine.commit_index
        cluster.network.send_local(client.name, "n0",
                                   duplicate_of(record, client))
        cluster.run_for(1.0)
        assert server.session_duplicates == 1
        # answered from the table: nothing new entered the log
        assert server.engine.commit_index == commits_before
        for live in live_servers(cluster):
            assert live.state_machine.get("k") == "x"  # not "xx"

    def test_duplicate_of_older_sequence_still_suppressed(self):
        cluster = started_cluster(FastRaftServer, seed=1)
        client = cluster.add_client(site="n0", session=True)
        first = cluster.propose_and_wait(client, KVCommand.append("k", "a"))
        cluster.propose_and_wait(client, KVCommand.append("k", "b"))
        server = cluster.servers["n0"]
        assert cluster.run_until(
            lambda: server.state_machine.get("k") == "ab", timeout=10.0)
        cluster.network.send_local(client.name, "n0",
                                   duplicate_of(first, client))
        cluster.run_for(1.0)
        assert cluster.servers["n0"].session_duplicates == 1
        assert cluster.servers["n0"].state_machine.get("k") == "ab"

    def test_sessionless_clients_unaffected(self):
        cluster = started_cluster(FastRaftServer, seed=1)
        client = cluster.add_client(site="n0")  # no session
        record = cluster.propose_and_wait(client,
                                          KVCommand.append("k", "x"))
        assert record.sequence == 0  # wire-identical to the old client
        assert not session_applied(cluster.servers["n0"], client.name)


class TestRetryRacingCommit:
    def test_retry_during_leader_crash_applies_once(self):
        """The retry races the original through a leader change; the
        applied-id and session layers must both collapse the pair."""
        cluster = started_cluster(FastRaftServer, seed=6)
        leader = cluster.leader()
        follower = next(n for n in cluster.servers if n != leader)
        client = cluster.add_client(site=follower, proposal_timeout=0.5,
                                    session=True)
        FaultInjector(cluster).crash(leader)
        record = client.submit(KVCommand.append("raced", "x"))
        assert cluster.run_until(lambda: record.done, timeout=30.0)
        cluster.run_for(2.0)  # let any straggler retry land too
        for live in live_servers(cluster):
            assert live.state_machine.get("raced") == "x"

    def test_retry_before_commit_falls_through_to_consensus(self):
        """A retry of a not-yet-applied request is not a duplicate: the
        session table only covers applied sequences, so the retry rides
        to the engine (whose applied-id set dedups the double commit)."""
        cluster = started_cluster(FastRaftServer, seed=1)
        client = cluster.add_client(site="n0", session=True)
        record = client.submit(KVCommand.append("k", "x"))
        # re-deliver immediately, before anything could commit
        cluster.network.send_local(client.name, "n0",
                                   duplicate_of(record, client))
        assert cluster.run_until(lambda: record.done, timeout=10.0)
        cluster.run_for(1.0)
        assert cluster.servers["n0"].session_duplicates == 0
        for live in live_servers(cluster):
            assert live.state_machine.get("k") == "x"


class TestDedupSurvivesFailover:
    def test_new_leader_recognizes_old_duplicates(self):
        cluster = started_cluster(FastRaftServer, seed=6)
        old_leader = cluster.leader()
        client = cluster.add_client(site="n0", session=True)
        record = cluster.propose_and_wait(client,
                                          KVCommand.append("k", "x"))
        FaultInjector(cluster).crash(old_leader)
        cluster.run_until_leader(timeout=30.0)
        new_leader = cluster.leader()
        assert new_leader != old_leader
        promoted = cluster.servers[new_leader]
        assert cluster.run_until(
            lambda: session_applied(promoted, client.name), timeout=30.0)
        cluster.network.send_local(client.name, new_leader,
                                   duplicate_of(record, client))
        cluster.run_for(1.0)
        assert cluster.servers[new_leader].session_duplicates == 1
        for live in live_servers(cluster):
            assert live.state_machine.get("k") == "x"

    def test_dedup_survives_crash_recovery(self):
        """Session state is volatile; recovery must rebuild it from the
        replayed log before any duplicate can sneak through."""
        cluster = started_cluster(FastRaftServer, seed=1)
        client = cluster.add_client(site="n0", session=True)
        record = cluster.propose_and_wait(client,
                                          KVCommand.append("k", "x"))
        faults = FaultInjector(cluster)
        faults.crash("n2")
        cluster.run_for(1.0)
        faults.recover("n2")
        recovered = cluster.servers["n2"]
        assert cluster.run_until(
            lambda: session_applied(recovered, client.name), timeout=30.0)
        cluster.network.send_local(client.name, "n2",
                                   duplicate_of(record, client))
        cluster.run_for(1.0)
        assert recovered.session_duplicates == 1
        assert recovered.state_machine.get("k") == "x"


class TestDedupSurvivesSnapshotRestore:
    def test_rebuilt_table_from_snapshot_applied_ids(self):
        """A site that catches up through InstallSnapshot never saw the
        compacted entries apply; its session table must come from the
        snapshot's applied-id set."""
        cluster = started_cluster(
            FastRaftServer, seed=1,
            compaction=CompactionPolicy(threshold=16, retain=2))
        client = cluster.add_client(site="n0", session=True)
        cluster.network.disconnect("n4")
        records = [cluster.propose_and_wait(
            client, KVCommand.append(f"k{i}", "x")) for i in range(40)]
        cluster.network.reconnect("n4")
        behind = cluster.servers["n4"]
        target = cluster.servers["n0"].engine.commit_index
        assert cluster.run_until(
            lambda: behind.engine.commit_index >= target, timeout=60.0)
        assert session_applied(behind, client.name)
        cluster.network.send_local(client.name, "n4",
                                   duplicate_of(records[0], client))
        cluster.run_for(1.0)
        assert behind.session_duplicates == 1
        assert behind.state_machine.get("k0") == "x"

    def test_duplicate_after_install_snapshot_replies_without_index(self):
        """A table rebuilt from a snapshot knows that a request applied,
        not where: the duplicate reply says so with ``index=None`` (never
        the non-index 0)."""
        cluster = started_cluster(
            FastRaftServer, seed=1,
            compaction=CompactionPolicy(threshold=16, retain=2))
        session = cluster.add_client(site="n0", session=True)
        filler = cluster.add_client(site="n0")
        cluster.network.disconnect("n4")
        last = [cluster.propose_and_wait(
            session, KVCommand.append(f"s{i}", "x")) for i in range(3)][-1]
        # push the session's last write below the leader's snapshot point
        for i in range(30):
            cluster.propose_and_wait(filler, KVCommand.put(f"f{i}", i))
        cluster.network.reconnect("n4")
        behind = cluster.servers["n4"]
        target = cluster.servers["n0"].engine.commit_index
        assert cluster.run_until(
            lambda: behind.engine.commit_index >= target, timeout=60.0)
        assert behind.applied_log.floor > 0  # caught up via InstallSnapshot
        inbox = Inbox(cluster)
        cluster.network.send_local(inbox.name, "n4",
                                   duplicate_of(last, session))
        cluster.run_for(0.1)
        assert inbox.replies == [ClientReply(
            request_id=last.request_id, ok=True, index=None,
            info="duplicate")]


class TestCraftSessions:
    def make_deployment(self):
        from repro.craft import build_craft_deployment
        from repro.net.latency import RegionLatencyModel
        from repro.net.topology import Topology
        from repro.smr.kv import KVStateMachine
        topo = Topology.even_clusters(6, ["us", "eu", "ap"])
        latency = RegionLatencyModel(
            dict(topo.node_regions),
            {("us", "eu"): 0.080, ("us", "ap"): 0.170,
             ("eu", "ap"): 0.220}, intra_rtt=0.0008, jitter=0.1)
        dep = build_craft_deployment(
            topo, latency, seed=3, batch_policy=BatchPolicy(batch_size=1),
            state_machine_factory=KVStateMachine)
        dep.start_all()
        dep.run_until_local_leaders()
        dep.run_until_global_ready(timeout=60.0)
        return topo, dep

    def test_duplicate_suppressed_at_attached_site(self):
        topo, dep = self.make_deployment()
        site = topo.nodes_in_cluster(topo.clusters[0])[0]
        client = dep.add_client(site=site, session=True)
        record = client.submit(KVCommand.append("k", "x"))
        assert dep.run_until(lambda: record.done, timeout=60.0)
        server = dep.servers[site]
        assert dep.run_until(lambda: session_applied(server, client.name),
                             timeout=60.0)
        dep.network.send_local(client.name, site,
                               duplicate_of(record, client))
        dep.run_for(1.0)
        assert server.session_duplicates == 1

    def test_duplicate_suppressed_across_clusters(self):
        """Batches carry applied ids to every cluster, so a session that
        fails over to a *different* cluster is still deduped there."""
        topo, dep = self.make_deployment()
        home = topo.nodes_in_cluster(topo.clusters[0])[0]
        away = topo.nodes_in_cluster(topo.clusters[1])[0]
        client = dep.add_client(site=home, session=True)
        record = client.submit(KVCommand.append("k", "x"))
        assert dep.run_until(lambda: record.done, timeout=60.0)
        remote = dep.servers[away]
        assert dep.run_until(lambda: session_applied(remote, client.name),
                             timeout=60.0)
        dep.network.send_local(client.name, away,
                               duplicate_of(record, client))
        dep.run_for(1.0)
        assert remote.session_duplicates == 1


LEASE_TIMING = TimingConfig(lease_duration=0.5)


class TestLeaseReads:
    def test_leader_serves_read_locally(self):
        cluster = started_cluster(RaftServer, seed=1, timing=LEASE_TIMING)
        leader = cluster.leader()
        writer = cluster.add_client(site=leader)
        cluster.propose_and_wait(writer, KVCommand.put("x", 1))
        cluster.run_for(0.5)  # a quorum-acked beat establishes the lease
        reader = cluster.add_client(site=leader)
        record = reader.read("x")
        assert cluster.run_until(lambda: record.done, timeout=5.0)
        assert record.result == 1
        assert record.kind == "read"

    def test_follower_read_waits_for_fresh_beat(self):
        cluster = started_cluster(RaftServer, seed=1, timing=LEASE_TIMING)
        leader = cluster.leader()
        writer = cluster.add_client(site=leader)
        cluster.propose_and_wait(writer, KVCommand.put("x", 7))
        follower = next(n for n in cluster.servers if n != leader)
        reader = cluster.add_client(site=follower)
        record = reader.read("x")
        assert cluster.run_until(lambda: record.done, timeout=5.0)
        assert record.result == 7

    def test_reads_refused_when_leases_disabled(self):
        cluster = started_cluster(RaftServer, seed=1)  # lease_duration=0
        reader = cluster.add_client(site="n0", proposal_timeout=0.2,
                                    max_attempts=3)
        record = reader.read("x")
        cluster.run_for(2.0)
        assert not record.done
        assert record in reader.abandoned

    def test_lease_reads_observe_linearizable_history(self):
        """Reads overlapping write ``i`` (with write ``i-1`` already
        acknowledged) may return only ``i-1`` or ``i``, and successive
        reads through one site never travel backwards."""
        cluster = started_cluster(RaftServer, seed=2, timing=LEASE_TIMING)
        leader = cluster.leader()
        writer = cluster.add_client(site=leader)
        follower = next(n for n in cluster.servers if n != leader)
        reader = cluster.add_client(site=follower)
        cluster.propose_and_wait(writer, KVCommand.put("x", 0))
        seen = []
        for i in range(1, 11):
            write = writer.submit(KVCommand.put("x", i))
            read = reader.read("x")
            assert cluster.run_until(
                lambda: write.done and read.done, timeout=10.0)
            assert read.result in (i - 1, i)
            seen.append(read.result)
        assert seen == sorted(seen)  # monotonic through one session


@functools.lru_cache(maxsize=None)
def _lease_leader_engine():
    """One elected lease-enabled leader, shared by every oracle example:
    each example overwrites all the state the lease rule reads."""
    cluster = started_cluster(RaftServer, seed=1, timing=LEASE_TIMING)
    return cluster.servers[cluster.leader()].engine


class TestLeaseExpiryOracle:
    """``_lease_expiry`` reads the lease base off one order statistic of
    the acked beat send times. The rule, stated naively here, is the
    only other statement of it."""

    @staticmethod
    def lease_rule(members, leader, acks, now, duration, skew):
        """The latest t such that a classic quorum of members acked a
        beat sent at or after t (the leader counts as ``now``), plus the
        duration, minus the skew; 0.0 when no such t exists."""
        sent = [now if m == leader else acks.get(m, 0.0) for m in members]
        quorum = len(members) // 2 + 1
        held = [t for t in sent
                if t > 0.0 and sum(1 for s in sent if s >= t) >= quorum]
        return max(held) + duration - skew if held else 0.0

    @given(
        n_others=st.integers(min_value=0, max_value=5),
        leader_in_config=st.booleans(),
        # beat send time each other member acked last; None never acked.
        acks=st.lists(st.one_of(st.none(),
                                st.floats(min_value=0.0, max_value=10.0)),
                      min_size=5, max_size=5),
        now=st.floats(min_value=0.0, max_value=10.0),
        duration=st.sampled_from([0.5, 1.0, 2.5]),
        skew=st.sampled_from([0.0, 0.01, 0.1]),
    )
    @settings(deadline=None, max_examples=300)
    def test_expiry_is_what_the_naive_rule_says(
            self, n_others, leader_in_config, acks, now, duration, skew):
        engine = _lease_leader_engine()
        leader = engine.name
        if not leader_in_config:
            n_others = max(n_others, 1)  # a configuration needs a member
        others = [f"m{i}" for i in range(n_others)]
        members = others + [leader] if leader_in_config else others
        acked = {m: t for m, t in zip(others, acks) if t is not None}
        engine._configuration = Configuration(tuple(members))
        engine._lease_acks = acked
        engine.timing = dataclasses.replace(
            LEASE_TIMING, lease_duration=duration, lease_skew=skew)
        assert engine._lease_expiry(now) == self.lease_rule(
            members, leader, acked, now, duration, skew)


class TestProposalCoalescing:
    def test_full_batch_flushes_and_commits(self):
        cluster = started_cluster(
            FastRaftServer, seed=1,
            propose_batch=BatchPolicy(batch_size=4, max_age=0.05))
        leader = cluster.run_until_leader()
        client = cluster.add_client(site=leader)
        records = [client.submit(KVCommand.put(f"k{i}", i))
                   for i in range(4)]
        assert cluster.run_until(
            lambda: all(r.done for r in records), timeout=10.0)
        cluster.run_for(1.0)  # let the commit propagate to followers
        for live in live_servers(cluster):
            assert live.state_machine.get("k3") == 3

    def test_partial_batch_flushes_on_age(self):
        cluster = started_cluster(
            FastRaftServer, seed=1,
            propose_batch=BatchPolicy(batch_size=100, max_age=0.05))
        leader = cluster.run_until_leader()
        client = cluster.add_client(site=leader)
        record = client.submit(KVCommand.put("solo", 1))
        assert cluster.run_until(lambda: record.done, timeout=10.0)

    def test_no_max_age_flushes_next_turn(self):
        """``max_age=None`` coalesces only same-instant arrivals: the
        flush timer arms at the pending batch's own arrival time."""
        cluster = started_cluster(
            FastRaftServer, seed=1,
            propose_batch=BatchPolicy(batch_size=100))
        leader = cluster.run_until_leader()
        client = cluster.add_client(site=leader)
        record = client.submit(KVCommand.put("solo", 1))
        assert cluster.run_until(lambda: record.done, timeout=10.0)

    def test_follower_requests_bypass_coalescer(self):
        cluster = started_cluster(
            FastRaftServer, seed=1,
            propose_batch=BatchPolicy(batch_size=100))
        leader = cluster.run_until_leader()
        follower = next(n for n in cluster.servers if n != leader)
        client = cluster.add_client(site=follower)
        record = cluster.propose_and_wait(client, KVCommand.put("f", 1))
        assert record.done
