"""The four protocol workloads: build, bootstrap, drive, measure.

Each workload drives the public API only (``build_cluster`` /
``build_from_spec``, ``add_client``, ``Client.submit/read``,
``FaultInjector``) and is sized by committed constants -- windows and
``trial_host_s`` were calibrated once on the reference machine; nothing
adapts at run time, so a trial with the same seed is the same
simulation, event for event.

One *trial* = build the system from a seed, bootstrap it up to the
measurement window (elections, global ready, client creation, sim
warm-up under load), simulate the window, stop arrivals, drain. Host-time
metrics time the window + drain; ``setup`` is everything before it. A run
is several trials on seeds derived from ``--seed``, pooled.
"""

from __future__ import annotations

import gc
import time
from dataclasses import astuple, dataclass, field, replace
from typing import Any

from repro.consensus import entry as entry_module
from repro.consensus.config import TransferConfig
from repro.consensus.timing import TimingConfig
from repro.craft.batching import BatchPolicy
from repro.experiments.heavy_traffic import (HeavyTrafficConfig,
                                             heavy_traffic_spec)
from repro.fastraft.server import FastRaftServer
from repro.harness.builder import build_cluster, build_from_spec
from repro.harness.faults import FaultInjector
from repro.metrics.summary import SnapshotCounters, tally_snapshots
from repro.net.latency import UniformLatency
from repro.net.loss import BernoulliLoss
from repro.raft.server import RaftServer
from repro.smr.kv import KVCommand, KVStateMachine
from repro.snapshot import CompactionPolicy

from benchmarks.suite.calib import reference_pass
from benchmarks.suite.load import Load

#: One-way LAN delay (seconds): sub-millisecond RTT inside one region.
LAN = UniformLatency(0.0002, 0.0005)
#: One-way WAN delay for ``wan_faults``.
WAN = UniformLatency(0.020, 0.045)


class OverBudget(Exception):
    """The simulation spent its event budget before the window ended."""


@dataclass(frozen=True)
class Limit:
    """A ladder rung passes when every bound here holds."""

    ack_p99_ms: float | None = None
    read_p99_ms: float | None = None
    global_p99_ms: float | None = None


@dataclass
class Context:
    """What bootstrap hands to the measured part of a trial."""

    system: Any
    load: Load
    window_start: float = 0.0
    window_end: float = 0.0
    #: (fire time, kind, site) of every fault the benchmark scheduled.
    fired: list[tuple[float, str, str]] = field(default_factory=list)
    scheduled_faults: int = 0
    #: (rejoin instant, site, seconds until caught up | None).
    catchups: list[list] = field(default_factory=list)
    #: Snapshot counters of engines lost to a crash (recovery builds a
    #: fresh engine whose counters restart at zero).
    retired: SnapshotCounters = SnapshotCounters()


class Workload:
    """Constants + the build/bootstrap pair; subclasses fill them in."""

    name = ""
    warmup = 2.0                     # sim-s under load before the window
    window = 10.0                    # sim-s measured
    drain = 5.0                      # sim-s after arrivals stop
    smoke_window = 2.0
    rate: float | None = None        # main rung (req / sim-s); None: closed
    ladder: tuple[float, ...] = ()
    limit = Limit()
    #: A rung's backlog at window end may exceed the mid-window backlog
    #: by this much (one batch) before it counts as growing.
    backlog_slack = 32
    #: Hard cap on simulated events per sim second of window + drain; a
    #: rung that exceeds it is failed, not waited for.
    events_per_sim_s = 60_000
    #: Host seconds one trial (set-up and reference passes included) costs
    #: on the reference machine; ``--seconds`` buys ``seconds /
    #: trial_host_s`` trials.
    trial_host_s = 1.0
    #: Sim seconds per timed slice: about 20 ms of host time, ten times a
    #: reference pass and a fraction of the host's shortest speed change.
    slice_s = 1.0

    def build(self, seed: int, trace: bool):
        raise NotImplementedError

    def bootstrap(self, system, rate: float | None, window: float) -> Context:
        raise NotImplementedError


def live_servers(system) -> list:
    """Sites that are up and connected (flat cluster or C-Raft)."""
    return [s for s in system.servers.values()
            if s.alive and not system.network.is_disconnected(s.name)]


def _session_clients(system, count: int, **kwargs) -> list:
    sites = list(system.servers)
    return [system.add_client(site=sites[i % len(sites)], name=f"s{i}",
                              session=True, **kwargs)
            for i in range(count)]


# ----------------------------------------------------------------------
# lan_closed
# ----------------------------------------------------------------------
class LanClosed(Workload):
    """Classic Raft, 5 sites, LAN, 4 closed-loop clients, no faults."""

    name = "lan_closed"
    window = 200.0
    smoke_window = 6.0
    drain = 2.0
    events_per_sim_s = 1_000
    trial_host_s = 0.95
    slice_s = 5.0

    def build(self, seed, trace):
        return build_cluster(RaftServer, n_sites=5, seed=seed, latency=LAN,
                             trace_enabled=trace,
                             state_machine_factory=KVStateMachine)

    def bootstrap(self, system, rate, window):
        system.start_all()
        leader = system.run_until_leader()
        follower = next(n for n in system.servers if n != leader)
        # Two clients on the leader, two on a follower so the
        # forward-to-leader path runs.
        clients = [system.add_client(site=site, name=f"c{i}")
                   for i, site in enumerate((leader, leader,
                                             follower, follower))]
        counters = [0] * len(clients)

        def op(load, index):
            counters[index] += 1
            return "put", f"c{index}.k{counters[index] % 64}", 0

        load = Load(system, clients, op, rate=None)
        load.start()
        system.run_for(self.warmup)
        return Context(system, load)


def single_site_ack_p50_ms(seed: int, requests: int = 200) -> float:
    """The one-node baseline: sequential puts against a 1-site Raft group.
    (Sequential, not a closed loop: a quorum of one commits in the instant
    the co-located client submits, so a closed loop would never let the
    sim clock advance. The figure is the floor replication is added to.)"""
    cluster = build_cluster(RaftServer, n_sites=1, seed=seed, latency=LAN,
                            trace_enabled=False,
                            state_machine_factory=KVStateMachine)
    cluster.start_all()
    client = cluster.add_client(site=cluster.run_until_leader(), name="c0")
    latencies = sorted(
        cluster.propose_and_wait(client, KVCommand.put("k", i)).latency
        for i in range(requests))
    return latencies[len(latencies) // 2] * 1e3


# ----------------------------------------------------------------------
# serving_rw
# ----------------------------------------------------------------------
class ServingRW(Workload):
    """Fast Raft + the flat serving front-end: sessions, coalescer, lease
    reads; 70% reads / 30% puts over 512 keys, open loop."""

    name = "serving_rw"
    sessions = 400
    keys = 512
    read_share = 0.7
    window = 40.0
    smoke_window = 2.0
    drain = 3.0
    rate = 300.0
    ladder = (150.0, 300.0, 600.0)
    limit = Limit(ack_p99_ms=250.0, read_p99_ms=150.0)
    # 600 req/s costs ~7k events/sim-s; 2000 req/s would cost ~130k.
    events_per_sim_s = 20_000
    trial_host_s = 1.3

    def build(self, seed, trace):
        return build_cluster(
            FastRaftServer, n_sites=5, seed=seed, latency=LAN,
            timing=TimingConfig(lease_duration=0.5), trace_enabled=trace,
            state_machine_factory=KVStateMachine,
            propose_batch=BatchPolicy(batch_size=8, max_age=0.005))

    def bootstrap(self, system, rate, window):
        system.start_all()
        system.run_until_leader()
        clients = _session_clients(system, self.sessions)
        keys, sessions, read_share = self.keys, self.sessions, self.read_share

        def op(load, index):
            rng = load.rng
            if rng.random() < read_share:
                return "read", f"k{rng.randrange(keys)}", 0
            # A session writes only keys it owns (index, index + sessions,
            # ...) and never pipelines, so per-key versions commit in
            # submission order -- which is what makes the read range
            # check in the gate exact.
            owned = (keys - index + sessions - 1) // sessions
            return "put", f"k{index + sessions * rng.randrange(owned)}", 0

        load = Load(system, clients, op, rate=rate)
        load.start()
        system.run_for(self.warmup)
        return Context(system, load)


# ----------------------------------------------------------------------
# wan_faults
# ----------------------------------------------------------------------
class WanFaults(Workload):
    """Fast Raft over a lossy, bandwidth-limited WAN whose leader crashes
    on a fixed schedule and recovers, evicted, 15 s later."""

    name = "wan_faults"
    sessions = 64
    token_bytes = 64
    window = 100.0
    smoke_window = 40.0
    drain = 15.0
    rate = 20.0
    events_per_sim_s = 4_000
    trial_host_s = 1.35
    slice_s = 2.0
    #: Offsets (sim-s after window start). A crashed leader recovers
    #: ``crash_down`` seconds later -- long enough for the member timeout
    #: to evict it and for compaction (threshold 200 entries = 10 s of
    #: load) to pass it, so it rejoins and catches up by InstallSnapshot.
    #: Faults that would not be over by the end of a (smoke) window are
    #: left out.
    crash_at = (10.0, 70.0)
    crash_down = 15.0
    #: Silent departures of the first live follower; none by default --
    #: see ``WanLeave`` and README, finding 9.
    leave_at: tuple[float, ...] = ()
    leave_down = 25.0
    #: A returning site gets its sessions back this long after it is up.
    rehome_after = 5.0

    def build(self, seed, trace):
        return build_cluster(
            FastRaftServer, n_sites=5, seed=seed, latency=WAN,
            loss=BernoulliLoss(0.02), bandwidth=2_000_000,
            trace_enabled=trace, state_machine_factory=KVStateMachine,
            compaction=CompactionPolicy(threshold=200, retain=20),
            transfer=TransferConfig(chunk_size=4096))

    def bootstrap(self, system, rate, window):
        system.start_all()
        system.run_until_leader(timeout=30.0)
        clients = _session_clients(system, self.sessions)
        width = self.token_bytes

        def op(load, index):
            return "append", f"s{index}", width

        load = Load(system, clients, op, rate=rate)
        load.start()
        system.run_for(self.warmup)
        ctx = Context(system, load)
        self._arm(ctx,
                  [t for t in self.crash_at if t + self.crash_down < window],
                  [t for t in self.leave_at if t + self.leave_down < window])
        return ctx

    def _arm(self, ctx, crash_at, leave_at) -> None:
        system, loop = ctx.system, ctx.system.loop
        faults = FaultInjector(system)
        homes = {c.name: c.site for c in ctx.load.clients}
        start = loop.now()
        ctx.scheduled_faults = 2 * (len(crash_at) + len(leave_at))

        def rehost(site: str) -> None:
            """Move the down site's sessions to the next live site, so
            their retries cross the failover."""
            names = list(system.servers)
            live = {s.name for s in live_servers(system)}
            at = names.index(site)
            target = next(names[(at + k) % len(names)]
                          for k in range(1, len(names) + 1)
                          if names[(at + k) % len(names)] in live)
            for client in ctx.load.clients:
                if client.site == site:
                    client.attach_to(target)

        def rehome(site: str) -> None:
            for client in ctx.load.clients:
                if homes[client.name] == site:
                    client.attach_to(site)

        def down(kind: str, back_kind: str, away: float) -> None:
            # Selectors resolve at fire time: the *current* leader, or
            # the first live follower. A leaderless instant defers the
            # fault rather than skipping it.
            leader = system.leader()
            if leader is None:
                loop.call_later(0.1, down, kind, back_kind, away)
                return
            site = leader if kind == "crash" else next(
                s.name for s in live_servers(system)
                if s.name != leader)
            if kind == "crash":
                ctx.retired = _add(ctx.retired, tally_snapshots(
                    [system.servers[site].engine]))
            getattr(faults, kind)(site)
            ctx.fired.append((loop.now(), kind, site))
            rehost(site)
            loop.call_later(away, back, back_kind, site)

        def back(kind: str, site: str) -> None:
            getattr(faults, kind)(site)
            now = loop.now()
            ctx.fired.append((now, kind, site))
            loop.call_later(self.rehome_after, rehome, site)
            leader = system.leader()
            target = (system.servers[leader].engine.commit_index
                      if leader is not None else 0)
            entry = [now, site, None]
            ctx.catchups.append(entry)
            poll(entry, target)

        def poll(entry: list, target: int) -> None:
            server = system.servers[entry[1]]
            if server.alive and server.engine.commit_index >= target:
                entry[2] = loop.now() - entry[0]
            else:
                loop.call_later(0.02, poll, entry, target)

        for offset in crash_at:
            loop.call_at(start + offset, down, "crash", "recover",
                         self.crash_down)
        for offset in leave_at:
            loop.call_at(start + offset, down, "silent_leave",
                         "silent_return", self.leave_down)


# ----------------------------------------------------------------------
# mesh_fleet
# ----------------------------------------------------------------------
class MeshFleet(Workload):
    """C-Raft, 6 clusters x 5 sites over AWS-like regions, adaptive
    batching, a 2,000-session open-loop fleet, and the last region's
    uplink flapping -- armed here, not by the scenario runner."""

    name = "mesh_fleet"
    sessions = 2000
    keys = 512
    warmup = 6.0
    window = 40.0
    smoke_window = 8.0
    drain = 12.0
    rate = 25.0
    ladder = (25.0, 50.0, 100.0)
    limit = Limit(global_p99_ms=10_000.0)
    backlog_slack = 64               # the adaptive policy's batch ceiling
    events_per_sim_s = 10_000
    trial_host_s = 2.0
    slice_s = 0.5
    # 0.3 s is the longest outage that never starves a global follower
    # past its 1.5 s election timeout (0.5 s heartbeat); see README,
    # finding 4, for what the 2 s / 4 s flap does to the global log.
    outage = 0.3
    stable = 3.7
    first_outage = 1.0

    def build(self, seed, trace):
        spec = heavy_traffic_spec(HeavyTrafficConfig())
        return build_from_spec(replace(spec, trace=trace), seed)

    def bootstrap(self, system, rate, window):
        system.start_all()
        system.run_until_local_leaders(timeout=15.0)
        system.run_until_global_ready(timeout=120.0)
        clients = _session_clients(system, self.sessions, max_attempts=8)
        keys = self.keys

        def op(load, index):
            return "append", f"k{load.version % keys}", 0

        load = Load(system, clients, op, rate=rate)
        load.start()
        system.run_for(self.warmup)
        ctx = Context(system, load)
        # The flapping uplink, with the groups heavy_traffic_spec names
        # (the last region against everyone else) but armed here: the
        # scenario's own drive never arms its schedule.
        spec = heavy_traffic_spec(HeavyTrafficConfig())
        rest, cut = spec.schedule.events[0].args[0]
        region = system.topology.cluster_of(cut[0])
        faults = FaultInjector(system)
        loop = system.loop

        def fire(kind: str) -> None:
            if kind == "partition":
                faults.partition([list(rest), list(cut)])
            else:
                faults.heal_partition()
            ctx.fired.append((loop.now(), kind, region))

        at = loop.now() + self.first_outage
        end = loop.now() + window
        while at + self.outage < end:
            loop.call_at(at, fire, "partition")
            loop.call_at(at + self.outage, fire, "heal_partition")
            ctx.scheduled_faults += 2
            at += self.outage + self.stable
        return ctx


class WanLeave(WanFaults):
    """``wan_faults`` plus a follower that silently leaves for 25 s and
    returns. Not part of ``--all``: in about 3 trials in 100 the returning
    site applies a different entry than its peers at the same index
    (README, finding 9). Kept as the reproducer."""

    name = "wan_leave"
    leave_at = (35.0,)
    smoke_window = 65.0


class MeshFlap2s(MeshFleet):
    """The 2 s out / 4 s stable flap of the ``heavy_traffic`` scenario.
    Not part of ``--all``: each outage outlasts the global election
    timeout, and the gate reports diverging global state machines on
    most seeds (README, finding 4). Kept as the reproducer."""

    name = "mesh_flap_2s"
    outage = 2.0
    stable = 4.0


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (LanClosed(), ServingRW(), WanFaults(), MeshFleet(),
                        WanLeave(), MeshFlap2s())}


# ----------------------------------------------------------------------
# One trial
# ----------------------------------------------------------------------
@dataclass
class Trial:
    """Raw outcome of one trial; reducers turn it into metrics."""

    workload: Workload
    rate: float | None
    ctx: Context
    build_s: float
    bootstrap_s: float
    #: Host seconds of each slice of window + drain.
    slices: list[float]
    #: Reference passes (``calib``): ``setup_passes`` before the build,
    #: between build and bootstrap and after the bootstrap;
    #: ``slice_passes[i]`` before slice ``i``, ``[i + 1]`` after it. Empty
    #: for a profiled trial, which is never timed.
    setup_passes: list[float]
    slice_passes: list[float]
    cpu_s: float
    #: Counter snapshots at window start (deltas are taken against it).
    base: dict[str, float]
    over_budget: bool = False


def _add(a: SnapshotCounters, b: SnapshotCounters) -> SnapshotCounters:
    return SnapshotCounters(*(x + y for x, y in zip(astuple(a), astuple(b))))


def engines_by_scope(system) -> dict[str, list]:
    """Every consensus engine, grouped by the group it votes in: one
    scope for a flat cluster; one per cluster plus ``global`` for C-Raft."""
    scopes: dict[str, list] = {}
    for server in system.servers.values():
        if hasattr(server, "local_engine"):
            scopes.setdefault(server.cluster, []).append(server.local_engine)
            if server.global_engine is not None:
                scopes.setdefault("global", []).append(server.global_engine)
        else:
            scopes.setdefault("main", []).append(server.engine)
    return scopes


def snapshot_counters(ctx: Context) -> dict[str, float]:
    """Cumulative counters read from outside the program; the (A)
    per-layer metrics are deltas of these across window + drain."""
    system = ctx.system
    stats = system.network.stats
    writes = write_bytes = 0
    fabric = system.fabric
    for name in system.servers:
        for store_name in (name, f"{name}::global"):
            if store_name in fabric:
                store = fabric.store_for(store_name)
                writes += store.write_count
                write_bytes += store.write_bytes
    scopes = engines_by_scope(system)
    snaps = _add(ctx.retired, tally_snapshots(
        e for engines in scopes.values() for e in engines))
    return {"sim.events": system.loop.events_processed,
            "net.sent": stats.sent, "net.delivered": stats.delivered,
            "net.dropped": stats.dropped, "net.blocked": stats.blocked,
            "net.dead_letter": stats.dead_letter,
            "net.bytes": stats.bytes_sent,
            "storage.writes": writes, "storage.write_bytes": write_bytes,
            "consensus.terms": sum(max(e.current_term for e in engines)
                                   for engines in scopes.values()),
            "smr.session_duplicates": sum(
                s.session_duplicates for s in system.servers.values()),
            "snapshot.taken": snaps.taken,
            "snapshot.installed": snaps.installed,
            "snapshot.shipped": snaps.shipped,
            "snapshot.chunks_sent": snaps.chunks_sent,
            "snapshot.entries_compacted": snaps.entries_compacted}


def run_trial(workload: Workload, seed: int, *, rate: float | None = None,
               trace: bool = False, smoke: bool = False,
               profiler=None) -> Trial:
    """Build, bootstrap and simulate one measurement window + drain.

    ``profiler`` (a ``cProfile.Profile``) is enabled around exactly the
    part ``wall_s`` times, so layer shares are shares of ``wall_s``.
    """
    rate = rate if rate is not None else workload.rate
    window = workload.smoke_window if smoke else workload.window
    # No-op entry ids come from a process-global counter, and an id's
    # length feeds size-aware delays: without this reset a trial's
    # simulation depends on what ran before it in the process (README,
    # finding 10).
    entry_module._NOOP_COUNTER = 0
    # Start from a collected heap: otherwise this trial pays, at some
    # random slice, for collecting the previous trial's garbage.
    gc.collect()
    timed = profiler is None
    setup_passes = [reference_pass()] if timed else []
    t0 = time.perf_counter()
    system = workload.build(seed, trace)
    build_s = time.perf_counter() - t0
    if timed:
        setup_passes.append(reference_pass())
    t1 = time.perf_counter()
    ctx = workload.bootstrap(system, rate, window)
    bootstrap_s = time.perf_counter() - t1
    if timed:
        setup_passes.append(reference_pass())
    loop = system.loop
    ctx.window_start = loop.now()
    ctx.window_end = ctx.window_start + window
    base = snapshot_counters(ctx)
    budget = base["sim.events"] + workload.events_per_sim_s * (
        window + workload.drain)
    over = False
    slices: list[float] = []
    slice_passes = setup_passes[-1:]
    step = workload.slice_s
    cpu: list[float] = []
    if profiler is not None:
        profiler.enable()

    def advance(until: float) -> None:
        while loop.now() < until:
            cpu_started = time.process_time()
            started = time.perf_counter()
            loop.run_for(min(step, until - loop.now()))
            slices.append(time.perf_counter() - started)
            cpu.append(time.process_time() - cpu_started)
            if timed:
                slice_passes.append(reference_pass())
            if loop.events_processed > budget:
                raise OverBudget

    try:
        advance(ctx.window_end)
        ctx.load.stop()
        advance(ctx.window_end + workload.drain)
    except OverBudget:
        over = True
        ctx.load.stop()
    finally:
        if profiler is not None:
            profiler.disable()
    return Trial(workload, rate, ctx, build_s=build_s,
                 bootstrap_s=bootstrap_s, slices=slices,
                 setup_passes=setup_passes, slice_passes=slice_passes,
                 cpu_s=sum(cpu), base=base, over_budget=over)
