"""Classic Raft administrator-driven membership changes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.config import Configuration
from repro.consensus.engine import Role
from repro.errors import ConsensusError, NotLeaderError
from repro.harness.faults import FaultInjector
from repro.raft.server import RaftServer
from repro.smr.kv import KVStateMachine
from repro.snapshot import CompactionPolicy
from tests.conftest import assert_safe, commit_n, live_servers, started_cluster


def add_fresh_server(cluster, name):
    """Create (but do not admit) a new site that knows current members."""
    members = tuple(cluster.servers)
    server = RaftServer(
        name=name, loop=cluster.loop, network=cluster.network,
        store=cluster.fabric.store_for(name),
        bootstrap_config=Configuration(members), timing=cluster.timing,
        rng=cluster.rng, trace=cluster.trace,
        state_machine_factory=KVStateMachine)
    cluster.add_server(server)
    server.start()
    return server


class TestAddSite:
    def test_add_site_becomes_voting_member(self):
        cluster = started_cluster(RaftServer, n_sites=3, seed=1)
        client = cluster.add_client(site="n0")
        commit_n(cluster, client, 3)
        joiner = add_fresh_server(cluster, "n9")
        leader = cluster.servers[cluster.leader()]
        leader.admin_add_site("n9")
        assert cluster.run_until(
            lambda: "n9" in leader.engine.configuration.members,
            timeout=10.0)
        cluster.run_for(1.0)
        assert joiner.engine.commit_index >= 4  # caught up
        assert_safe(cluster)

    def test_joiner_receives_join_accepted_state(self):
        cluster = started_cluster(RaftServer, n_sites=3, seed=1)
        joiner = add_fresh_server(cluster, "n9")
        leader = cluster.servers[cluster.leader()]
        leader.admin_add_site("n9")
        cluster.run_until(
            lambda: "n9" in joiner.engine.configuration.members,
            timeout=10.0)
        assert "n9" in joiner.engine.configuration.members

    def test_new_member_counts_in_quorum(self):
        cluster = started_cluster(RaftServer, n_sites=3, seed=1)
        add_fresh_server(cluster, "n9")
        leader = cluster.servers[cluster.leader()]
        leader.admin_add_site("n9")
        cluster.run_until(
            lambda: "n9" in leader.engine.configuration.members, timeout=10.0)
        assert leader.engine.configuration.classic_quorum == 3  # of 4

    def test_add_duplicate_rejected(self):
        cluster = started_cluster(RaftServer, n_sites=3, seed=1)
        leader = cluster.servers[cluster.leader()]
        with pytest.raises(Exception):
            leader.admin_add_site("n0")

    def test_admin_on_follower_raises_not_leader(self):
        cluster = started_cluster(RaftServer, n_sites=3, seed=1)
        follower = next(n for n in cluster.servers if n != cluster.leader())
        with pytest.raises(NotLeaderError) as excinfo:
            cluster.servers[follower].admin_add_site("n9")
        assert excinfo.value.leader_hint == cluster.leader()


class TestRemoveSite:
    def test_remove_follower(self):
        cluster = started_cluster(RaftServer, n_sites=5, seed=1)
        leader = cluster.servers[cluster.leader()]
        victim = next(n for n in cluster.servers if n != cluster.leader())
        leader.admin_remove_site(victim)
        assert cluster.run_until(
            lambda: victim not in leader.engine.configuration.members,
            timeout=10.0)
        assert leader.engine.configuration.size == 4
        assert_safe(cluster)

    def test_commits_work_after_removal(self):
        cluster = started_cluster(RaftServer, n_sites=5, seed=1)
        leader = cluster.servers[cluster.leader()]
        victim = next(n for n in cluster.servers if n != cluster.leader())
        leader.admin_remove_site(victim)
        cluster.run_until(
            lambda: victim not in leader.engine.configuration.members,
            timeout=10.0)
        client = cluster.add_client(site=cluster.leader())
        records = commit_n(cluster, client, 3)
        assert all(r.done for r in records)
        assert_safe(cluster)

    def test_leader_removes_itself_and_steps_down(self):
        cluster = started_cluster(RaftServer, n_sites=3, seed=1)
        old_leader_name = cluster.leader()
        cluster.servers[old_leader_name].admin_remove_site(old_leader_name)
        assert cluster.run_until(
            lambda: (cluster.leader() is not None
                     and cluster.leader() != old_leader_name),
            timeout=10.0)
        new_leader = cluster.servers[cluster.leader()]
        assert old_leader_name not in new_leader.engine.configuration.members
        assert_safe(cluster)


class TestSequentialChanges:
    def test_one_at_a_time(self):
        """Two queued changes commit in order, never concurrently."""
        cluster = started_cluster(RaftServer, n_sites=5, seed=1)
        leader = cluster.servers[cluster.leader()]
        victims = [n for n in cluster.servers
                   if n != cluster.leader()][:2]
        leader.admin_remove_site(victims[0])
        leader.admin_remove_site(victims[1])
        assert cluster.run_until(
            lambda: leader.engine.configuration.size == 3, timeout=10.0)
        # every adopted config along the way differed by at most one site
        configs = [e.payload["members"] for e in cluster.trace.select_prefix("raft.config.adopt")
                   if e.node == leader.name]
        previous = ("n0", "n1", "n2", "n3", "n4")
        for members in configs:
            assert len(set(previous) ^ set(members)) <= 1
            previous = members
        assert_safe(cluster)


# ----------------------------------------------------------------------
# Configuration freshness (the config_epoch guard in _absorb_append_entries)
# ----------------------------------------------------------------------
class FreshnessRun:
    """A 3-site classic Raft cluster with two spare sites, a small
    compaction threshold and a client, stepped one loop event at a time;
    after every event, every live site's adopted configuration must be
    the one its log and snapshot derive (followers refresh only when the
    log's ``config_epoch`` moved across an absorb, so a missed bump
    anywhere -- truncation, overwrite, compaction, InstallSnapshot --
    shows here as a stale ``_configuration``)."""

    def __init__(self, seed):
        self.cluster = started_cluster(
            RaftServer, n_sites=3, seed=seed,
            compaction=CompactionPolicy(threshold=6, retain=2))
        self.spares = ["n8", "n9"]
        for spare in self.spares:
            add_fresh_server(self.cluster, spare)
        self.faults = FaultInjector(self.cluster)
        self.client = self.cluster.add_client(site="n0")
        self.writes = 0
        self.events = 0

    def step(self, events):
        loop = self.cluster.loop
        for _ in range(events):
            pending = loop.pending_handles()
            if not pending:
                return
            loop.fire_handle(pending[0])
            self.events += 1
            for server in self.cluster.servers.values():
                if server.alive:
                    engine = server.engine
                    assert (engine._configuration
                            == engine._derive_configuration()), (
                        server.name, self.events, loop.now())

    def leader(self):
        name = self.cluster.leader()  # the live one with the highest term
        return self.cluster.servers[name] if name is not None else None

    def act(self, action, pick):
        leader = self.leader()
        live = live_servers(self.cluster)
        crashed = [s for s in self.cluster.servers.values() if not s.alive]
        if action == "write":
            self.client.attach_to(live[pick % len(live)].name)
            for _ in range(3):
                self.writes += 1
                self.client.submit({"op": "put", "key": f"k{self.writes % 5}",
                                    "value": self.writes})
        elif action in ("add", "remove", "isolate") and leader is not None:
            members = leader.engine.configuration.members
            outsiders = [s for s in self.spares if s not in members]
            try:
                if action == "add" and outsiders:
                    leader.admin_add_site(outsiders[pick % len(outsiders)])
                elif action != "add" and len(members) > 2:
                    if action == "isolate":
                        # A CONFIG entry only the cut-off leader holds:
                        # the next leader's AppendEntries truncates it.
                        self.faults.partition(
                            [[leader.name],
                             [n for n in self.cluster.servers
                              if n != leader.name]])
                    leader.admin_remove_site(members[pick % len(members)])
            except ConsensusError:
                pass  # a change is already queued for that site
        elif action == "crash" and not crashed and len(live) > 1:
            victims = sorted(s.name for s in live)
            self.faults.crash(leader.name if leader is not None and pick < 5
                              else victims[pick % len(victims)])
        elif action == "recover":
            for server in crashed:
                self.faults.recover(server.name)
        elif action == "heal":
            self.faults.heal_partition()

    def settle(self):
        self.faults.heal_partition()
        self.act("recover", 0)
        self.step(1500)


class TestConfigurationFreshness:
    @given(seed=st.integers(0, 10_000),
           schedule=st.lists(st.tuples(
               st.integers(1, 150),
               st.sampled_from(["write", "write", "add", "remove", "isolate",
                                "crash", "recover", "heal"]),
               st.integers(0, 9)), max_size=14))
    @settings(deadline=None, max_examples=30)
    def test_adopted_configuration_is_the_derived_one(self, seed, schedule):
        run = FreshnessRun(seed)
        for events, action, pick in schedule:
            run.step(events)
            run.act(action, pick)
        run.settle()

    def test_second_add_of_a_queued_site_is_skipped(self):
        """An add queued while the same site's first add is still
        catching up is moot once the first commits: it must not start
        (it used to raise from inside the leader's event handler)."""
        run = FreshnessRun(seed=0)
        for _ in range(2):
            run.step(1)
            run.act("add", 0)
        run.settle()
        leader = run.leader()
        assert "n8" in leader.engine.configuration.members
        assert leader.engine._pending_config is None
        assert not leader.engine._config_queue

    def test_truncated_config_entry_is_un_adopted(self):
        """The case the guard exists for: a follower-to-be holds an
        uncommitted CONFIG entry that the next leader truncates away."""
        run = FreshnessRun(seed=3)
        run.act("write", 0)
        run.step(400)
        old_leader = run.leader()
        run.act("isolate", 0)
        shrunk = old_leader.engine.configuration
        assert shrunk.size == 2  # adopted from its own append
        run.step(2500)           # the majority side elects and moves on
        run.act("write", 1)
        run.step(300)
        assert old_leader.engine.configuration == shrunk
        epoch = old_leader.engine.log.config_epoch
        run.act("heal", 0)
        run.step(1500)
        assert old_leader.engine.log.config_epoch > epoch
        assert old_leader.engine.configuration.size == 3
        assert old_leader.engine.role is not Role.LEADER

    def test_joiner_behind_the_compaction_point_installs_a_snapshot(self):
        run = FreshnessRun(seed=5)
        for _ in range(4):
            run.act("write", 0)
            run.step(400)
        leader = run.leader()
        assert leader.engine.log.snapshot_index > 0
        run.act("add", 0)
        run.step(2500)
        joiner = run.cluster.servers["n8"]
        assert joiner.engine.snapshots_installed >= 1
        assert "n8" in joiner.engine.configuration.members
        run.act("remove", 0)     # and a removal the joiner absorbs
        run.step(2500)
        assert (joiner.engine.configuration
                == run.leader().engine.configuration)
