"""Probe-before-trust recovery (README "Crash recovery & rejoin").

A recovering site must not trust a restored configuration older than the
member timeout: on ``recover()`` it probes the members of its restored
configuration (plus the persisted leader hint) and acts on the answers --
a strictly newer configuration that excludes it routes straight onto the
``NotInConfiguration`` -> ``JoinRequest`` rejoin path, a confirmation
resumes normal operation, and a timeout falls back to the pre-probe
behaviour so a fully partitioned recovery still comes up.

Four batteries:

1. the handshake itself (probe -> rejected/confirmed/timeout traces);
2. the recovery x eviction-timing schedule battery (recover before / at /
   just after / long after the member timeout, crossed with a leader
   crash mid-rejoin and lossy links on the probe path);
3. ``ConsensusServer.recover()`` bookkeeping (snapshot-carried
   ``frontend.applied_ids``, ``applied_log.floor``, double-recover rejection);
4. the ``replaces`` seat hint threading through the declarative
   ``request_join`` action.
"""

import pytest

from repro.consensus.messages import JoinRequest
from repro.consensus.timing import TimingConfig
from repro.errors import ExperimentError
from repro.fastraft.server import FastRaftServer
from repro.harness.faults import FaultInjector
from repro.net.loss import NoLoss
from repro.scenarios.spec import Event
from repro.snapshot import CompactionPolicy
from tests.conftest import (LinkLoss, assert_safe, commit_n, live_servers,
                            started_cluster)


def _trace_events(cluster, category):
    return [e for e in cluster.trace.events if e.category == category]


def _leader_members(cluster):
    """The leader's member set, or ``()`` mid-election."""
    leader = cluster.leader()
    if leader is None:
        return ()
    return cluster.servers[leader].engine.configuration.members


def _evict(cluster, faults, victim):
    """Crash ``victim`` and run until *every* live server has applied
    the exclusion (not just the leader -- a lagging follower that still
    carries the old configuration would answer a later recovery probe
    with a stale confirmation)."""
    faults.crash(victim)
    assert cluster.run_until(
        lambda: all(victim not in s.engine.configuration.members
                    for s in live_servers(cluster)),
        timeout=10.0), "member timeout never evicted the crashed site"


class TestProbeHandshake:
    def test_evicted_site_rejoins_via_probe_before_election_timeout(self):
        """The headline fix: a site evicted while down learns its
        eviction from the probe replies and rejoins immediately, instead
        of idling until an unwinnable election timeout (>= 0.3 s)."""
        cluster = started_cluster(FastRaftServer, seed=3)
        client = cluster.add_client(site=cluster.leader())
        commit_n(cluster, client, 3)
        victim = next(n for n in cluster.servers if n != cluster.leader())
        faults = FaultInjector(cluster)
        _evict(cluster, faults, victim)
        faults.recover(victim)
        recovered_at = cluster.loop.now()
        assert cluster.run_until(
            lambda: victim in _leader_members(cluster),
            timeout=10.0)
        rejoin_latency = cluster.loop.now() - recovered_at
        # Probe round trip + join + catch-up: well inside the 0.3 s the
        # old silent-follower path had to wait before even *detecting*.
        assert rejoin_latency < 0.3, rejoin_latency
        outcomes = [e.payload["outcome"] for e in
                    _trace_events(cluster, "fastraft.recovery.probe_done")]
        assert "rejected" in outcomes
        cluster.run_for(1.0)
        assert not cluster.servers[victim].engine._evicted
        assert_safe(cluster)

    def test_still_member_recovery_is_confirmed(self):
        """A site that recovers before the member timeout gets a
        confirmation and resumes as a follower -- no join traffic."""
        cluster = started_cluster(FastRaftServer, seed=4)
        victim = next(n for n in cluster.servers if n != cluster.leader())
        faults = FaultInjector(cluster)
        faults.crash(victim)
        cluster.run_for(0.15)  # well inside the 0.5 s member timeout
        faults.recover(victim)
        cluster.run_for(0.5)
        outcomes = [e.payload["outcome"] for e in
                    _trace_events(cluster, "fastraft.recovery.probe_done")]
        assert outcomes == ["confirmed"]
        assert not _trace_events(cluster, "fastraft.join.requested")
        assert victim in _leader_members(cluster)
        assert_safe(cluster)

    def test_partitioned_recovery_falls_back_on_timeout(self):
        """Probes that cannot reach anyone must not wedge the recovery:
        the probe timer fires and the site falls back to trusting its
        restored configuration (the pre-probe behaviour), then rejoins
        through the old election-timeout path once healed."""
        cluster = started_cluster(FastRaftServer, seed=5)
        victim = next(n for n in cluster.servers if n != cluster.leader())
        faults = FaultInjector(cluster)
        _evict(cluster, faults, victim)
        cluster.network.set_loss(
            LinkLoss.around(victim, cluster.servers, 1.0))
        faults.recover(victim)
        cluster.run_for(0.25)  # past recovery_probe_timeout=0.15
        outcomes = [e.payload["outcome"] for e in
                    _trace_events(cluster, "fastraft.recovery.probe_done")]
        assert outcomes == ["timeout"]
        assert not cluster.servers[victim].engine._evicted  # still trusting
        cluster.network.set_loss(NoLoss())
        assert cluster.run_until(
            lambda: victim in _leader_members(cluster),
            timeout=20.0)
        assert_safe(cluster)

    def test_probe_disabled_restores_old_behaviour(self):
        """``recovery_probe_timeout=0`` opts out entirely: no probe
        traffic, and the silent window lasts until an election timeout
        trips the NotInConfiguration path (the pre-fix timeline the
        catch-up goldens pin)."""
        cluster = started_cluster(
            FastRaftServer, seed=6,
            timing=TimingConfig(recovery_probe_timeout=0.0))
        victim = next(n for n in cluster.servers if n != cluster.leader())
        faults = FaultInjector(cluster)
        _evict(cluster, faults, victim)
        faults.recover(victim)
        recovered_at = cluster.loop.now()
        cluster.run_for(0.2)
        assert not _trace_events(cluster, "fastraft.recovery.probe")
        assert not cluster.servers[victim].engine._evicted  # still silent
        assert cluster.run_until(
            lambda: victim in _leader_members(cluster),
            timeout=20.0)
        # Detection alone needed an election timeout: >= 0.3 s.
        assert cluster.loop.now() - recovered_at >= 0.3
        assert_safe(cluster)

    def test_probe_replies_carry_the_leader_hint(self):
        """A confirmed recovery adopts the replied leader hint instead
        of waiting for the next heartbeat to learn it."""
        cluster = started_cluster(FastRaftServer, seed=7)
        leader = cluster.leader()
        victim = next(n for n in cluster.servers if n != leader)
        faults = FaultInjector(cluster)
        faults.crash(victim)
        cluster.run_for(0.12)
        faults.recover(victim)
        cluster.run_for(0.05)  # replies land; next heartbeat has not
        assert cluster.servers[victim].engine.leader_id == leader


class TestEvictionTimingBattery:
    """Recovery placed before / racing / just after / long after the
    member timeout (5 beats x 0.1 s): every downtime must end with the
    victim back in the governing configuration and a safe cluster."""

    @pytest.mark.parametrize("downtime", [0.2, 0.5, 0.8, 3.0])
    def test_recovery_across_the_member_timeout(self, downtime):
        cluster = started_cluster(FastRaftServer, seed=8)
        client = cluster.add_client(site=cluster.leader())
        commit_n(cluster, client, 3)
        victim = next(n for n in cluster.servers if n != cluster.leader())
        faults = FaultInjector(cluster)
        faults.crash(victim)
        cluster.run_for(downtime)
        faults.recover(victim)
        assert cluster.run_until(
            lambda: victim in _leader_members(cluster)
            and not cluster.servers[victim].engine._evicted,
            timeout=20.0)
        cluster.run_for(1.0)
        assert_safe(cluster)

    @pytest.mark.parametrize("downtime", [0.8, 3.0])
    def test_leader_crash_mid_rejoin(self, downtime):
        """The leader that evicted the victim dies right as the victim's
        probe-triggered rejoin starts; the join must survive the
        election and land with the successor."""
        cluster = started_cluster(FastRaftServer, seed=9)
        client = cluster.add_client(site=cluster.leader())
        commit_n(cluster, client, 3)
        old_leader = cluster.leader()
        victim = next(n for n in cluster.servers if n != old_leader)
        faults = FaultInjector(cluster)
        faults.crash(victim)
        cluster.run_for(downtime)
        faults.recover(victim)
        cluster.run_for(0.02)  # probes in flight / rejoin starting
        faults.crash(old_leader)
        assert cluster.run_until(
            lambda: cluster.leader() != old_leader
            and victim in _leader_members(cluster)
            and not cluster.servers[victim].engine._evicted,
            timeout=30.0)
        cluster.run_for(1.0)
        assert_safe(cluster)

    @pytest.mark.parametrize("loss", [0.3, 0.6])
    def test_lossy_probe_path_still_rejoins(self, loss):
        """Partial loss on the victim's links: whichever of the probe
        fast path or the timeout fallback wins, the victim rejoins."""
        cluster = started_cluster(FastRaftServer, seed=10)
        client = cluster.add_client(site=cluster.leader())
        commit_n(cluster, client, 3)
        victim = next(n for n in cluster.servers if n != cluster.leader())
        faults = FaultInjector(cluster)
        _evict(cluster, faults, victim)
        cluster.network.set_loss(
            LinkLoss.around(victim, cluster.servers, loss))
        faults.recover(victim)
        assert cluster.run_until(
            lambda: victim in _leader_members(cluster),
            timeout=30.0)
        cluster.run_for(1.0)
        assert_safe(cluster)


class TestRecoverBookkeeping:
    def test_snapshot_carries_applied_ids_and_floor(self):
        """Recovery from a compacted log resumes the exactly-once
        bookkeeping from the snapshot image: the front-end's applied ids
        come back and ``applied_log.floor`` restarts at the snapshot point."""
        cluster = started_cluster(
            FastRaftServer, seed=11,
            compaction=CompactionPolicy(threshold=6, retain=2))
        client = cluster.add_client(site=cluster.leader())
        commit_n(cluster, client, 10)
        victim = next(n for n in cluster.servers if n != cluster.leader())
        cluster.run_until(
            lambda: cluster.servers[victim].engine.snapshot_store.latest
            is not None, timeout=10.0)
        faults = FaultInjector(cluster)
        faults.crash(victim)
        faults.recover(victim)
        server = cluster.servers[victim]
        snapshot = server.engine.snapshot_store.latest
        assert snapshot is not None
        assert server.applied_log.floor == snapshot.last_included_index
        assert server.frontend.applied_ids == set(snapshot.applied_ids)
        assert snapshot.applied_ids  # the image actually carried ids
        cluster.run_for(2.0)
        leader_sm = cluster.servers[cluster.leader()].state_machine
        assert server.state_machine.snapshot() == leader_sm.snapshot()
        assert_safe(cluster)

    def test_recovering_a_live_site_is_rejected(self):
        cluster = started_cluster(FastRaftServer, seed=12)
        victim = next(n for n in cluster.servers if n != cluster.leader())
        faults = FaultInjector(cluster)
        with pytest.raises(ExperimentError, match="alive"):
            faults.recover(victim)
        faults.crash(victim)
        faults.recover(victim)  # the legal order still works
        with pytest.raises(ExperimentError, match="alive"):
            faults.recover(victim)  # but not twice
        cluster.run_for(1.0)
        assert_safe(cluster)


class TestDeclarativeJoinReplaces:
    def _pending_join_requests(self, cluster):
        requests = []
        for handle in cluster.loop.pending_handles():
            args = handle.args
            if len(args) == 3 and isinstance(args[2], JoinRequest):
                requests.append(args[2])
        return requests

    def test_replaces_hint_threads_through_the_event(self):
        cluster = started_cluster(FastRaftServer, seed=13)
        faults = FaultInjector(cluster)
        event = Event(action="request_join", target="n4", at=0.0,
                      args=("n0", "n2"))
        faults.apply_event(event, initial_leader=cluster.leader())
        (request,) = self._pending_join_requests(cluster)
        assert request.site == "n4"
        assert request.replaces == "n2"

    def test_bare_contact_keeps_no_hint(self):
        cluster = started_cluster(FastRaftServer, seed=13)
        faults = FaultInjector(cluster)
        event = Event(action="request_join", target="n4", at=0.0,
                      args=("n0",))
        faults.apply_event(event, initial_leader=cluster.leader())
        (request,) = self._pending_join_requests(cluster)
        assert request.replaces is None


def _probe_outcomes(cluster):
    """``(confirmed, rejected, timeout)`` summed over every engine."""
    engines = [s.engine for s in cluster.servers.values()]
    return tuple(sum(getattr(e, f"recovery_probes_{outcome}")
                     for e in engines)
                 for outcome in ("confirmed", "rejected", "timeout"))


class TestProbeCounters:
    """The engine-level outcome counters (trace-free runs still get
    recovery-probe accounting)."""

    def test_confirmed_recovery_increments_counter(self):
        cluster = started_cluster(FastRaftServer, seed=4)
        victim = next(n for n in cluster.servers if n != cluster.leader())
        faults = FaultInjector(cluster)
        faults.crash(victim)
        cluster.run_for(0.15)
        faults.recover(victim)
        cluster.run_for(0.5)
        assert _probe_outcomes(cluster) == (1, 0, 0)

    def test_timeout_recovery_increments_counter(self):
        cluster = started_cluster(FastRaftServer, seed=5)
        victim = next(n for n in cluster.servers if n != cluster.leader())
        faults = FaultInjector(cluster)
        faults.crash(victim)
        cluster.network.set_loss(
            LinkLoss.around(victim, cluster.servers, 1.0))
        faults.recover(victim)
        cluster.run_for(0.25)  # past recovery_probe_timeout=0.15
        assert _probe_outcomes(cluster)[2] == 1
