"""Configuration freshness under membership change.

Classic Raft is the paper's fixed-membership baseline: its bootstrap
configuration governs the whole run, so its log never holds a CONFIG
entry. Membership changes only under Fast Raft (self-announced joins,
member-timeout evictions), so the freshness oracle runs there: after
every loop event, every live site's adopted configuration must be the
one its log and snapshot derive.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.config import Configuration
from repro.fastraft.server import FastRaftServer
from repro.harness.faults import FaultInjector
from repro.snapshot import CompactionPolicy
from tests.conftest import add_joining_server, live_servers, started_cluster


class FreshnessRun:
    """A 4-site Fast Raft cluster with two spare sites that self-join
    when started, a small compaction threshold and a client, stepped one
    loop event at a time. A site re-derives its configuration only when
    a CONFIG slot, the commit index or its snapshot moves (Fast Raft
    refreshes on a CONFIG insert or overwrite, a CONFIG commit and an
    InstallSnapshot), so a refresh missed anywhere shows here as a stale
    ``_configuration``."""

    def __init__(self, seed):
        self.cluster = started_cluster(
            FastRaftServer, n_sites=4, seed=seed,
            compaction=CompactionPolicy(threshold=6, retain=2))
        self.spares = ["n8", "n9"]
        self.faults = FaultInjector(self.cluster)
        self.client = self.cluster.add_client(site="n0")
        self.left: list[str] = []
        self.writes = 0
        self.events = 0

    def start_spare(self):
        return add_joining_server(self.cluster, self.spares.pop(0))

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
                    __, members, observers = engine.log.config_at(
                        engine.log.last_index + 1, engine.commit_index,
                        engine._config_base())
                    assert (engine._configuration
                            == Configuration(members, observers)), (
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
        elif action == "join" and self.spares:
            self.start_spare()
        elif action == "silent_leave" and not self.left and len(live) > 2:
            victim = sorted(s.name for s in live)[pick % len(live)]
            self.faults.silent_leave(victim)
            self.left.append(victim)
        elif action == "silent_return":
            for name in self.left:
                self.faults.silent_return(name)
            self.left.clear()
        elif action == "isolate" and leader is not None:
            # Whatever only the cut-off leader holds is overwritten by
            # the next leader's AppendEntries once the partition heals.
            self.faults.partition(
                [[leader.name],
                 [n for n in self.cluster.servers if n != leader.name]])
        elif action == "crash" and not crashed and len(live) > 2:
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
        self.act("silent_return", 0)
        self.act("recover", 0)
        self.step(1500)


class TestConfigurationFreshness:
    @given(seed=st.integers(0, 10_000),
           schedule=st.lists(st.tuples(
               st.integers(1, 150),
               st.sampled_from(["write", "write", "join", "silent_leave",
                                "silent_return", "isolate", "crash",
                                "recover", "heal"]),
               st.integers(0, 9)), max_size=14))
    @settings(deadline=None, max_examples=30)
    def test_adopted_configuration_is_the_derived_one(self, seed, schedule):
        run = FreshnessRun(seed)
        for events, action, pick in schedule:
            run.step(events)
            run.act(action, pick)
        run.settle()

    def test_joiner_behind_the_compaction_point_installs_a_snapshot(self):
        run = FreshnessRun(seed=5)
        for _ in range(4):
            run.act("write", 0)
            run.step(400)
        leader = run.leader()
        assert leader.engine.log.snapshot_index > 0
        joiner = run.start_spare()
        run.step(2500)
        assert joiner.engine.snapshots_installed >= 1
        assert "n8" in joiner.engine.configuration.members
        # ... and an eviction the joiner absorbs: a silent departure the
        # leader's member timeout detects.
        victim = next(n for n in ("n1", "n2", "n3") if n != leader.name)
        run.faults.silent_leave(victim)
        run.step(2500)
        assert victim not in leader.engine.configuration.members
        assert joiner.engine.configuration == leader.engine.configuration
