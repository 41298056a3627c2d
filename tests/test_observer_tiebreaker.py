"""Observer/tiebreaker roles and the joining-leader exclusion quorum.

The tentpole safety property, exercised two ways:

- **Arithmetic** (`TestQuorumIntersection`): exhaustively, for every
  degenerate voting set a tiebreaker can serve (``|members| <= 2``,
  observers, an eligible joiner), any two voter sets that satisfy *any*
  mix of the quorum rules (classic, election, CONFIG-entry) intersect in
  at least one site. Intersection + one-vote-per-site is exactly what
  makes two conflicting committed configurations impossible.
- **Executions** (`TestNoConflictingConfigs`): seed sweeps over crash
  and partition schedules on a 2-voter + observer cluster; after every
  run, all sites' committed CONFIG entries must agree index-by-index and
  the usual safety checkers must pass. No seed may commit two
  conflicting configurations.

Plus the liveness the roles exist for: a 2-voter cluster that loses one
voter (leader or follower) keeps committing, excludes the dead voter,
and admits a replacement joiner whose votes count toward the exclusion.
"""

from __future__ import annotations

import itertools

import pytest

from repro.consensus.config import Configuration
from repro.consensus.engine import Role
from repro.consensus.entry import EntryKind
from repro.consensus.messages import JoinRequest
from repro.consensus.quorum import (
    classic_quorum_size,
    decides_config_entry,
    has_classic_quorum,
    has_fast_quorum,
    tiebreaker,
    wins_election,
)
from repro.fastraft.server import FastRaftServer
from repro.harness.builder import build_cluster
from repro.harness.checkers import (
    check_committed_prefix_agreement,
    check_election_safety,
)
from repro.smr.kv import KVStateMachine
from tests.conftest import assert_safe, commit_n


def observer_cluster(seed, n_sites=2, n_observers=1, **kwargs):
    kwargs.setdefault("state_machine_factory", KVStateMachine)
    return build_cluster(FastRaftServer, n_sites=n_sites, seed=seed,
                         n_observers=n_observers, **kwargs)


def committed_configs(server):
    """(index, members, observers, version) for every *committed* CONFIG
    entry in the server's log."""
    engine = server.engine
    out = []
    for index, entry in engine.log:
        if (index <= engine.commit_index
                and entry.kind is EntryKind.CONFIG):
            out.append((index, entry.payload.members,
                        entry.payload.observers, entry.payload.version))
    return out


def assert_single_config_lineage(cluster) -> None:
    """No two sites hold conflicting committed CONFIG entries: at every
    committed index where two sites both have a CONFIG entry, the
    configurations are identical."""
    by_index: dict[int, tuple] = {}
    for server in cluster.servers.values():
        for index, members, observers, version in committed_configs(server):
            seen = by_index.setdefault(index, (members, observers, version))
            assert seen == (members, observers, version), (
                f"conflicting committed configs at index {index}: "
                f"{seen} vs {(members, observers, version)}")


# ----------------------------------------------------------------------
# Arithmetic: every quorum-rule combination intersects
# ----------------------------------------------------------------------
class TestQuorumIntersection:
    def _quorum_families(self, members, observers, joiners):
        """All voter sets satisfying each rule, over the whole universe."""
        config = Configuration(members, observers)
        universe = sorted(set(members) | set(observers) | set(joiners))
        classic, election, config_rule = [], [], []
        for r in range(len(universe) + 1):
            for combo in itertools.combinations(universe, r):
                voters = set(combo)
                if has_classic_quorum(config, voters):
                    classic.append(voters)
                if wins_election(config, voters):
                    election.append(voters)
                if decides_config_entry(config, voters, set(joiners)):
                    config_rule.append(voters)
        return classic, election, config_rule

    def test_all_rule_mixes_intersect(self):
        """The no-two-conflicting-configs core: for every degenerate
        shape, any two quorums under any mix of rules share a site."""
        shapes = [
            (("a",), (), ()),
            (("a",), ("o",), ()),
            (("a", "b"), (), ()),
            (("a", "b"), ("o",), ()),
            (("a", "b"), ("o",), ("j",)),
            (("a", "b"), ("o", "p"), ()),
            (("a", "b"), ("o", "p"), ("j",)),
            (("a", "b"), (), ("j",)),
        ]
        for members, observers, joiners in shapes:
            families = self._quorum_families(members, observers, joiners)
            all_quorums = [q for family in families for q in family]
            for qa, qb in itertools.combinations(all_quorums, 2):
                assert qa & qb, (
                    f"disjoint quorums {sorted(qa)} / {sorted(qb)} for "
                    f"members={members} observers={observers} "
                    f"joiners={joiners}")

    def test_promotion_only_when_degenerate(self):
        """With three or more voters the tiebreaker never activates: the
        election and CONFIG rules collapse to the classic quorum."""
        config = Configuration(("a", "b", "c"), ("o",))
        assert tiebreaker(config) is None
        assert not wins_election(config, {"a", "o"})
        assert not decides_config_entry(config, {"a", "o"})
        assert wins_election(config, {"a", "b"})

    def test_observers_never_count_toward_ordinary_commits(self):
        config = Configuration(("a", "b"), ("o",))
        assert tiebreaker(config) == "o"
        assert not has_classic_quorum(config, {"a", "o"})
        assert not has_fast_quorum(config, {"a", "o"})
        assert decides_config_entry(config, {"a", "o"})
        assert wins_election(config, {"b", "o"})

    def test_expanded_quorum_is_majority_of_electorate(self):
        config = Configuration(("a", "b"), ("o",))
        electorate = 3
        assert classic_quorum_size(electorate) == 2
        assert not decides_config_entry(config, {"o"})
        assert not wins_election(config, {"o"})


# ----------------------------------------------------------------------
# Roles: replication without votes, promotion, demotion
# ----------------------------------------------------------------------
class TestObserverRole:
    def test_observer_replicates_but_never_votes_commits(self):
        cluster = observer_cluster(seed=2, n_sites=3)
        cluster.start_all()
        cluster.run_until_leader()
        client = cluster.add_client(site="n0")
        commit_n(cluster, client, 5)
        cluster.run_for(1.0)
        observer = cluster.servers["n3"]
        assert observer.engine.commit_index >= 5  # fully replicated
        assert not observer.engine.is_member
        assert observer.engine.role is Role.FOLLOWER
        # a full cluster (3 voters) never needs the observer's ballot
        assert tiebreaker(cluster.servers[
            cluster.leader()].engine.configuration) is None
        assert_safe(cluster)

    def test_observer_does_not_ask_to_join(self):
        cluster = observer_cluster(seed=5, n_sites=2)
        cluster.start_all()
        cluster.run_until_leader()
        cluster.run_for(5.0)  # many election timeouts' worth
        leader = cluster.servers[cluster.leader()]
        assert leader.engine.configuration.members == ("n0", "n1")
        assert leader.engine.configuration.observers == ("n2",)

    def test_two_voter_leader_crash_recovers_via_tiebreaker(self):
        """The flat-engine version of the global deadlock: 2 voters, the
        *leader* dies. The observer's election ballot elects the
        survivor; its CONFIG votes commit the exclusion."""
        for seed in (1, 3, 7):
            cluster = observer_cluster(seed=seed, n_sites=2)
            cluster.start_all()
            victim = cluster.run_until_leader()
            survivor = next(n for n in ("n0", "n1") if n != victim)
            cluster.servers[victim].crash()
            assert cluster.run_until(
                lambda: cluster.leader() == survivor, timeout=30.0), \
                f"seed {seed}: survivor never won the tiebreaker election"
            engine = cluster.servers[survivor].engine
            assert cluster.run_until(
                lambda: victim not in engine.configuration.members,
                timeout=30.0), f"seed {seed}: exclusion never committed"
            client = cluster.add_client(site=survivor)
            records = commit_n(cluster, client, 3)
            assert all(r.done for r in records)
            assert_single_config_lineage(cluster)
            check_election_safety(cluster.trace)

    def test_two_voter_follower_crash_excluded_via_tiebreaker(self):
        cluster = observer_cluster(seed=4, n_sites=2)
        cluster.start_all()
        leader = cluster.run_until_leader()
        victim = next(n for n in ("n0", "n1") if n != leader)
        cluster.servers[victim].crash()
        engine = cluster.servers[leader].engine
        assert cluster.run_until(
            lambda: victim not in engine.configuration.members,
            timeout=30.0)
        assert engine.configuration.observers == ("n2",)
        client = cluster.add_client(site=leader)
        assert all(r.done for r in commit_n(cluster, client, 3))
        assert_single_config_lineage(cluster)

    def test_fast_committed_entry_survives_exclusion_insert(self):
        """Found by an end-to-end drive: the crashed leader had
        fast-committed (and client-acked) an entry whose copy at the
        survivor was still self-approved with the commit unheard. The
        exclusion's direct insert used to land at commit_index+1 and
        overwrite it -- a committed write vanished. It must land on an
        empty slot and let the decision procedure re-derive the
        surviving value from votes (Lemma 2)."""
        cluster = observer_cluster(seed=1, n_sites=2)
        cluster.start_all()
        leader = cluster.run_until_leader()
        client = cluster.add_client(site=leader)
        assert cluster.propose_and_wait(client, {"op": "put", "key": "pre",
                                                 "value": 1}).done
        cluster.servers[leader].crash()
        survivor = next(n for n in ("n0", "n1") if n != leader)
        assert cluster.run_until(lambda: cluster.leader() == survivor,
                                 timeout=30.0)
        engine = cluster.servers[survivor].engine
        assert cluster.run_until(
            lambda: leader not in engine.configuration.members,
            timeout=30.0)
        client2 = cluster.add_client(site=survivor)
        assert cluster.propose_and_wait(client2, {"op": "put", "key": "post",
                                                  "value": 2}).done
        snap = cluster.servers[survivor].state_machine.snapshot()
        assert snap == {"pre": 1, "post": 2}, snap
        # the recovered ex-leader rejoins and converges to the same state
        cluster.servers[leader].recover()
        assert cluster.run_until(
            lambda: leader in engine.configuration.members, timeout=60.0)
        cluster.run_for(2.0)
        assert cluster.servers[leader].state_machine.snapshot() == snap
        assert_safe(cluster)
        assert_single_config_lineage(cluster)

    def test_observer_promoted_to_voter_on_join(self):
        """An observer that asks to join moves from the observer list to
        the member list in one single-site change."""
        cluster = observer_cluster(seed=6, n_sites=2)
        cluster.start_all()
        leader_name = cluster.run_until_leader()
        leader = cluster.servers[leader_name]
        observer = cluster.servers["n2"]
        observer.engine.seek_membership()
        assert cluster.run_until(
            lambda: "n2" in leader.engine.configuration.members,
            timeout=30.0)
        assert "n2" not in leader.engine.configuration.observers
        assert cluster.run_until(lambda: observer.engine.is_member,
                                 timeout=15.0)
        assert_safe(cluster)


class TestClassicRaftObservers:
    """The observer role is engine-agnostic: classic Raft replicates to
    observers. Its membership is static, so a site started outside the
    bootstrap configuration idles instead of electing or joining."""

    def test_observer_replicated_and_outsider_idles(self):
        from repro.raft.server import RaftServer
        cluster = build_cluster(RaftServer, n_sites=3, n_observers=1,
                                seed=2, state_machine_factory=KVStateMachine)
        cluster.start_all()
        leader_name = cluster.run_until_leader()
        client = cluster.add_client(site=leader_name)
        commit_n(cluster, client, 4)
        cluster.run_for(1.0)
        observer = cluster.servers["n3"]
        assert observer.engine.commit_index >= 4  # replicated, non-voting
        assert not observer.engine.is_member
        # a site outside the static configuration sits out its election
        # timeouts: no term bump, no vote request, no configuration change
        outsider = RaftServer(
            name="n8", loop=cluster.loop, network=cluster.network,
            store=cluster.fabric.store_for("n8"),
            bootstrap_config=Configuration(("n0", "n1", "n2"), ("n3",)),
            timing=cluster.timing, rng=cluster.rng, trace=cluster.trace,
            state_machine_factory=KVStateMachine)
        cluster.add_server(outsider)
        outsider.start()
        commit_n(cluster, client, 4)
        cluster.run_for(3.0)  # several election timeouts
        assert outsider.alive and not outsider.engine.is_member
        assert outsider.engine.role is Role.FOLLOWER
        assert outsider.engine.current_term == 0
        assert outsider.engine.commit_index == 0
        leader = cluster.servers[leader_name]
        assert leader.engine.role is Role.LEADER
        for server in (leader, observer):
            assert server.engine.configuration == Configuration(
                ("n0", "n1", "n2"), ("n3",))
        assert_safe(cluster)


# ----------------------------------------------------------------------
# Joining-leader exclusion quorum (no observer needed)
# ----------------------------------------------------------------------
class TestJoiningLeaderExclusionQuorum:
    def test_replacement_joiner_unwedges_two_voter_exclusion(self):
        """2 voters, no observer, one voter dead: the exclusion cannot
        decide (2-of-2). A joiner naming the dead voter as the seat it
        replaces is caught up early and its votes complete the quorum."""
        cluster = build_cluster(FastRaftServer, n_sites=2, seed=9,
                                state_machine_factory=KVStateMachine)
        cluster.start_all()
        leader_name = cluster.run_until_leader()
        victim = next(n for n in ("n0", "n1") if n != leader_name)
        client = cluster.add_client(site=leader_name)
        commit_n(cluster, client, 3)
        cluster.servers[victim].crash()
        leader = cluster.servers[leader_name]
        # wedged: the exclusion change is pending but cannot decide
        cluster.run_for(3.0)
        assert victim in leader.engine.configuration.members
        # a fresh site joins, naming the dead voter's seat
        joiner = FastRaftServer(
            name="n8", loop=cluster.loop, network=cluster.network,
            store=cluster.fabric.store_for("n8"),
            bootstrap_config=Configuration(("n0", "n1")),
            timing=cluster.timing, rng=cluster.rng, trace=cluster.trace,
            state_machine_factory=KVStateMachine)
        cluster.add_server(joiner)
        joiner.start()
        cluster.network.send("n8", leader_name,
                             JoinRequest(site="n8", replaces=victim))
        assert cluster.run_until(
            lambda: victim not in leader.engine.configuration.members,
            timeout=30.0), "the replacement joiner never completed the " \
                           "exclusion quorum"
        assert cluster.run_until(
            lambda: "n8" in leader.engine.configuration.members,
            timeout=30.0)
        assert all(r.done for r in commit_n(cluster, client, 3))
        # the joiner replayed the full history before voting
        assert cluster.run_until(
            lambda: joiner.state_machine.snapshot().get("k0") == 0,
            timeout=15.0)
        assert_single_config_lineage(cluster)
        check_election_safety(cluster.trace)

    def test_unrelated_joiner_does_not_count(self):
        """A joiner that does not name the dead voter's seat must not
        tip the exclusion quorum -- the expansion is single-purpose."""
        cluster = build_cluster(FastRaftServer, n_sites=2, seed=11,
                                state_machine_factory=KVStateMachine)
        cluster.start_all()
        leader_name = cluster.run_until_leader()
        victim = next(n for n in ("n0", "n1") if n != leader_name)
        cluster.servers[victim].crash()
        leader = cluster.servers[leader_name]
        joiner = FastRaftServer(
            name="n8", loop=cluster.loop, network=cluster.network,
            store=cluster.fabric.store_for("n8"),
            bootstrap_config=Configuration(("n0", "n1")),
            timing=cluster.timing, rng=cluster.rng, trace=cluster.trace,
            state_machine_factory=KVStateMachine)
        cluster.add_server(joiner)
        joiner.start()
        cluster.network.send("n8", leader_name,
                             JoinRequest(site="n8"))  # no replaces
        cluster.run_for(10.0)
        assert victim in leader.engine.configuration.members
        assert "n8" not in leader.engine.configuration.members


# ----------------------------------------------------------------------
# Seed sweeps: no execution commits two conflicting configs
# ----------------------------------------------------------------------
class TestNoConflictingConfigs:
    SEEDS = range(12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_crash_schedule_single_lineage(self, seed):
        """Crash one of the two voters (leader on odd seeds, follower on
        even), let the tiebreaker settle the exclusion, then bring the
        crashed voter back to rejoin: one config lineage throughout."""
        cluster = observer_cluster(seed=seed, n_sites=2)
        cluster.start_all()
        leader_name = cluster.run_until_leader()
        follower = next(n for n in ("n0", "n1") if n != leader_name)
        victim = leader_name if seed % 2 else follower
        client_site = follower if seed % 2 else leader_name
        client = cluster.add_client(site=client_site)
        commit_n(cluster, client, 2)
        cluster.servers[victim].crash()
        survivor = next(n for n in ("n0", "n1") if n != victim)
        engine = cluster.servers[survivor].engine
        assert cluster.run_until(
            lambda: (cluster.leader() == survivor
                     and victim not in engine.configuration.members),
            timeout=40.0), f"seed {seed}: tiebreaker never settled"
        commit_n(cluster, client, 2)
        cluster.servers[victim].recover()
        assert cluster.run_until(
            lambda: victim in engine.configuration.members, timeout=40.0)
        cluster.run_for(2.0)
        assert_single_config_lineage(cluster)
        check_committed_prefix_agreement(
            s.engine for s in cluster.servers.values())
        check_election_safety(cluster.trace)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_partition_schedule_single_lineage(self, seed):
        """Isolate the leader from {follower, observer}: the pair elects
        a new leader via the tiebreaker, the old leader can commit
        nothing alone, and healing converges to one lineage."""
        cluster = observer_cluster(seed=seed, n_sites=2)
        cluster.start_all()
        old_leader = cluster.run_until_leader()
        follower = next(n for n in ("n0", "n1") if n != old_leader)
        cluster.network.partition([[old_leader], [follower, "n2"]])
        assert cluster.run_until(
            lambda: cluster.servers[follower].engine.role is Role.LEADER,
            timeout=40.0), f"seed {seed}: pair side never elected"
        client = cluster.add_client(site=follower)
        commit_n(cluster, client, 2)
        cluster.network.heal_partition()
        engine = cluster.servers[follower].engine
        cluster.run_until(
            lambda: cluster.servers[old_leader].engine.commit_index
            >= engine.commit_index, timeout=40.0)
        cluster.run_for(2.0)
        assert_single_config_lineage(cluster)
        check_committed_prefix_agreement(
            s.engine for s in cluster.servers.values())
        check_election_safety(cluster.trace)
