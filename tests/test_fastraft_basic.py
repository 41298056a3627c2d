"""Fast Raft: fast track, classic fallback, latency shape."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.config import Configuration
from repro.consensus.engine import Role
from repro.consensus.entry import EntryKind, InsertedBy, LogEntry
from repro.consensus.log import RaftLog
from repro.fastraft.server import FastRaftServer
from repro.harness.checkers import check_leader_approved_prefix
from repro.harness.workload import ClosedLoopWorkload
from repro.net.loss import BernoulliLoss
from repro.raft.server import RaftServer
from tests.conftest import assert_safe, commit_n, started_cluster


def trace_count(cluster, category):
    return len([e for e in cluster.trace.events if e.category == category])


class TestFastTrack:
    def test_commits_use_fast_track_without_loss(self, fast_cluster):
        client = fast_cluster.add_client(site="n0")
        records = commit_n(fast_cluster, client, 10)
        assert all(r.done for r in records)
        assert trace_count(fast_cluster, "fastraft.fast_commit") >= 10
        assert trace_count(fast_cluster, "fastraft.classic_commit") == 0
        assert_safe(fast_cluster)

    def test_entries_leader_approved_after_commit(self, fast_cluster):
        client = fast_cluster.add_client(site="n0")
        commit_n(fast_cluster, client, 3)
        fast_cluster.run_for(0.5)
        leader = fast_cluster.servers[fast_cluster.leader()].engine
        for index in range(1, leader.commit_index + 1):
            assert leader.log.get(index).inserted_by is InsertedBy.LEADER
        check_leader_approved_prefix(leader)

    def test_followers_receive_leader_approved_via_append(self, fast_cluster):
        client = fast_cluster.add_client(site="n0")
        commit_n(fast_cluster, client, 3)
        fast_cluster.run_for(1.0)
        for server in fast_cluster.servers.values():
            engine = server.engine
            assert engine.commit_index == 3
            for index in range(1, 4):
                assert engine.log.get(index).inserted_by is InsertedBy.LEADER

    def test_state_machines_converge(self, fast_cluster):
        client = fast_cluster.add_client(site="n2")
        commit_n(fast_cluster, client, 5)
        fast_cluster.run_for(1.0)
        snapshots = {name: s.state_machine.snapshot()
                     for name, s in fast_cluster.servers.items()}
        assert all(s == {f"k{i}": i for i in range(5)}
                   for s in snapshots.values())

    def test_single_site_cluster(self):
        cluster = started_cluster(FastRaftServer, n_sites=1, seed=3)
        client = cluster.add_client(site="n0")
        records = commit_n(cluster, client, 3)
        assert all(r.done for r in records)


class TestLatencyShape:
    """The Fig. 3 headline: fast track halves commit latency."""

    def mean_latency(self, server_cls, seed=13, n=20, loss=None):
        cluster = started_cluster(server_cls, seed=seed, loss=loss)
        client = cluster.add_client(site="n0")
        workload = ClosedLoopWorkload(client, max_requests=n)
        workload.start()
        assert cluster.run_until(lambda: workload.done, timeout=90.0)
        latencies = workload.latencies()
        return sum(latencies) / len(latencies)

    def test_fast_raft_roughly_half_classic_latency(self):
        classic = self.mean_latency(RaftServer)
        fast = self.mean_latency(FastRaftServer)
        assert fast < 0.7 * classic
        assert fast > 0.25 * classic  # not an order-of-magnitude artifact

    def test_fast_raft_degrades_with_loss(self):
        clean = self.mean_latency(FastRaftServer, loss=None)
        lossy = self.mean_latency(FastRaftServer, loss=BernoulliLoss(0.10))
        assert lossy > clean * 1.15


class TestClassicTrackFallback:
    def test_loss_triggers_classic_track(self):
        cluster = started_cluster(FastRaftServer, seed=21,
                                  loss=BernoulliLoss(0.10))
        client = cluster.add_client(site="n0")
        workload = ClosedLoopWorkload(client, max_requests=30)
        workload.start()
        assert cluster.run_until(lambda: workload.done, timeout=120.0)
        assert trace_count(cluster, "fastraft.classic_commit") > 0
        assert_safe(cluster)

    def test_fast_track_unavailable_below_fast_quorum(self):
        """With 2 of 5 sites down, only the classic track can commit."""
        cluster = started_cluster(FastRaftServer, seed=23)
        from repro.harness.faults import FaultInjector
        faults = FaultInjector(cluster)
        victims = [n for n in cluster.servers if n != cluster.leader()][:2]
        # Crash (not silent-leave detection): keep membership at 5.
        faults.crash(victims[0])
        faults.crash(victims[1])
        # Commit a couple of entries before the member timeout fires.
        client = cluster.add_client(site=cluster.leader())
        records = []
        for i in range(2):
            records.append(cluster.propose_and_wait(
                client, {"op": "put", "key": f"x{i}", "value": i},
                timeout=5.0))
        assert all(r.done for r in records)
        assert trace_count(cluster, "fastraft.classic_commit") >= 1
        assert_safe(cluster)


@functools.lru_cache(maxsize=None)
def _oracle_leader_engine(server_cls):
    """One elected leader per engine kind, shared by every oracle
    example: each example overwrites all the state the commit rule
    reads."""
    cluster = started_cluster(server_cls, seed=5)
    return cluster.servers[cluster.leader()].engine


def _commit_decision(engine, members, match, terms, commit, current_term):
    """Load the commit rule's inputs into ``engine`` and return the
    indexes its ``_advance_leader_commit`` hands to the commit sweep."""
    log = RaftLog()
    for index, term in terms.items():
        log.insert(index, LogEntry(
            entry_id=f"e{index}", kind=EntryKind.DATA, payload=None,
            origin=engine.name, term=term, inserted_by=InsertedBy.LEADER))
    engine.log = log
    engine._configuration = Configuration(tuple(members))
    engine.match_index = match
    engine.commit_index = commit
    engine.current_term = current_term
    advanced_to = []
    engine._advance_commit_index = advanced_to.append
    try:
        engine._advance_leader_commit()
    finally:
        del engine._advance_commit_index
    return advanced_to


class TestClassicTrackCommitOracle:
    """Fast Raft's ``_advance_leader_commit`` computes the commit point
    from one order statistic of ``matchIndex`` and a downward term scan.
    The paper's rule, stated naively here, is the only other statement
    of it."""

    @staticmethod
    def paper_rule(members, leader, match, terms, commit, last_leader,
                   current_term):
        """Walk k upward from commitIndex + 1 through the leader-approved
        region; stop at the first k a classic quorum of matchIndex does
        not cover; keep the highest current-term k seen. A leader outside
        the configuration holds no vote of its own."""
        quorum = len(members) // 2 + 1
        best = commit
        for k in range(commit + 1, last_leader + 1):
            votes = 1 if leader in members else 0
            votes += sum(1 for m in members
                         if m != leader and match.get(m, 0) >= k)
            if votes < quorum:
                break
            if terms.get(k) == current_term:
                best = k
        return best

    @given(
        n_others=st.integers(min_value=0, max_value=5),
        leader_in_config=st.booleans(),
        matches=st.lists(st.one_of(st.none(),
                                   st.integers(min_value=0, max_value=14)),
                         min_size=5, max_size=5),
        # index -> term of the entry there; None is a hole.
        slots=st.lists(st.one_of(st.none(),
                                 st.integers(min_value=1, max_value=3)),
                       min_size=12, max_size=12),
        commit=st.integers(min_value=0, max_value=12),
        leader_region=st.integers(min_value=0, max_value=14),
        current_term=st.integers(min_value=2, max_value=3),
    )
    @settings(deadline=None, max_examples=300)
    def test_advances_exactly_where_the_paper_rule_says(
            self, n_others, leader_in_config, matches, slots, commit,
            leader_region, current_term):
        engine = _oracle_leader_engine(FastRaftServer)
        leader = engine.name
        if not leader_in_config:
            n_others = max(n_others, 1)  # a configuration needs a member
        others = [f"m{i}" for i in range(n_others)]
        members = others + [leader] if leader_in_config else others
        match = {m: v for m, v in zip(others, matches) if v is not None}
        terms = {i + 1: t for i, t in enumerate(slots) if t is not None}
        engine.last_leader_index = leader_region
        advanced_to = _commit_decision(engine, members, match, terms, commit,
                                       current_term)
        expected = self.paper_rule(members, leader, match, terms, commit,
                                   leader_region, current_term)
        assert advanced_to == ([expected] if expected > commit else [])


class TestClassicRaftCommitOracle:
    """Raft's own commit rule, stated naively: commit the highest N above
    commitIndex that a majority's matchIndex covers with log[N].term ==
    currentTerm (the leader counts its whole log). Classic Raft reads
    the frontier off one order statistic and checks the term only there,
    which is right only because its log terms never decrease; Fast
    Raft's rule must agree on such a log when its leader-approved region
    is the whole log. Both engines are held to the naive rule."""

    @staticmethod
    def raft_rule(members, leader, match, terms, commit, current_term):
        last = len(terms)
        quorum = len(members) // 2 + 1
        best = commit
        for n in range(commit + 1, last + 1):
            covered = sum(1 for m in members
                          if (last if m == leader else match.get(m, 0)) >= n)
            if covered >= quorum and terms[n] == current_term:
                best = n
        return best

    @pytest.mark.parametrize("server_cls", [RaftServer, FastRaftServer])
    @given(
        n_others=st.integers(min_value=0, max_value=5),
        matches=st.lists(st.one_of(st.none(),
                                   st.integers(min_value=0, max_value=14)),
                         min_size=5, max_size=5),
        # Term steps along a contiguous log: entry k's term is 1 plus the
        # steps up to k, capped at the leader's term (never decreasing).
        steps=st.lists(st.integers(min_value=0, max_value=1), max_size=12),
        commit=st.integers(min_value=0, max_value=12),
        current_term=st.integers(min_value=2, max_value=4),
    )
    @settings(deadline=None, max_examples=300)
    def test_advances_exactly_where_raft_says(self, server_cls, n_others,
                                              matches, steps, commit,
                                              current_term):
        engine = _oracle_leader_engine(server_cls)
        leader = engine.name
        others = [f"m{i}" for i in range(n_others)]
        members = others + [leader]
        match = {m: v for m, v in zip(others, matches) if v is not None}
        terms, term = {}, 1
        for index, step in enumerate(steps, start=1):
            term = min(term + step, current_term)
            terms[index] = term
        commit = min(commit, len(terms))
        if server_cls is FastRaftServer:
            engine.last_leader_index = len(terms)
        advanced_to = _commit_decision(engine, members, match, terms, commit,
                                       current_term)
        expected = self.raft_rule(members, leader, match, terms, commit,
                                  current_term)
        assert advanced_to == ([expected] if expected > commit else [])


class TestConcurrentProposals:
    def test_conflicting_proposals_serialize(self):
        cluster = started_cluster(FastRaftServer, seed=17)
        clients = [cluster.add_client(site=f"n{i}") for i in range(5)]
        records = [c.submit({"op": "put", "key": f"c{i}", "value": i})
                   for i, c in enumerate(clients)]
        assert cluster.run_until(lambda: all(r.done for r in records),
                                 timeout=30.0)
        cluster.run_for(1.0)
        assert_safe(cluster)
        kv = cluster.servers["n0"].state_machine.snapshot()
        assert kv == {f"c{i}": i for i in range(5)}

    def test_two_writers_same_key_last_write_wins_consistently(self):
        cluster = started_cluster(FastRaftServer, seed=18)
        a = cluster.add_client(site="n0")
        b = cluster.add_client(site="n3")
        ra = a.submit({"op": "put", "key": "k", "value": "A"})
        rb = b.submit({"op": "put", "key": "k", "value": "B"})
        assert cluster.run_until(lambda: ra.done and rb.done, timeout=10.0)
        cluster.run_for(1.0)
        values = {s.state_machine.get("k")
                  for s in cluster.servers.values()}
        assert len(values) == 1  # same winner everywhere
        assert_safe(cluster)


class TestVoteFlow:
    def test_leader_collects_votes_from_all(self, fast_cluster):
        client = fast_cluster.add_client(site="n0")
        commit_n(fast_cluster, client, 1)
        stats = fast_cluster.network.stats
        assert stats.by_type["ProposeEntry"] >= 5
        assert stats.by_type["VoteEntry"] >= 3

    def test_commit_notice_sent_to_remote_origin(self, fast_cluster):
        origin = next(n for n in fast_cluster.servers
                      if n != fast_cluster.leader())
        client = fast_cluster.add_client(site=origin)
        commit_n(fast_cluster, client, 1)
        assert fast_cluster.network.stats.by_type["CommitNotice"] >= 1
