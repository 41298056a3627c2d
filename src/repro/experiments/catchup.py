"""Rejoin-to-caught-up latency under churn, with and without snapshots.

The fig4-style churn scenario stressed end to end: a follower crashes
early, the cluster keeps committing (and, in Fast Raft, evicts the silent
member), and the node later recovers and has to catch back up. Without
compaction the leader replays the whole log from the follower's crash
point -- O(history) per rejoin, quadratic over a long churn run. With a
:class:`~repro.snapshot.CompactionPolicy` the leader's log prefix is
gone, so it ships one InstallSnapshot plus the retained tail instead.

The experiment runs the same scenario twice (snapshots on/off) per
engine -- classic Raft, Fast Raft, and C-Raft (where the churned node is
a cluster member catching up at the local level, inheriting the global
image through the composite local snapshot) -- and reports rejoin
latency, replayed entry counts, and snapshot counters. The WAN variant
(``catchup_wan``) reruns the flat drive over a bandwidth-limited link,
monolithic vs chunked InstallSnapshot.

The crash is declared in the scenario's event schedule; the measured
recovery tail (capture the target commit point, recover, time the
catch-up) is this experiment's registered drive family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.consensus.config import TransferConfig
from repro.consensus.timing import TimingConfig
from repro.errors import ExperimentError
from repro.experiments.base import ResultTable, require
from repro.harness.checkers import (
    check_committed_prefix_agreement,
    check_images_agree,
    run_safety_checks,
)
from repro.harness.workload import ClosedLoopWorkload
from repro.metrics.summary import SnapshotCounters, tally_snapshots
from repro.scenarios.registry import Scenario, register_scenario
from repro.scenarios.runner import (
    RunContext,
    attach_workloads,
    drive,
    elect_flat_leader,
    run_commit_triggered_events,
    run_workload_to_completion,
)
from repro.scenarios.spec import (
    ENGINES,
    Cell,
    Event,
    EventSchedule,
    LatencySpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.smr.kv import KVStateMachine
from repro.snapshot import CompactionPolicy
from repro.snapshot.chunking import snapshot_wire_size


@dataclass(frozen=True)
class CatchupConfig:
    engines: tuple[str, ...] = ENGINES
    n_sites: int = 5              # flat engines; craft runs 3 + 3
    warmup_commits: int = 20      # commits before the crash
    #: Commits before the recovery: one count, or one per engine.
    total_commits: int | Mapping[str, int] = 160
    threshold: int = 40           # compaction trigger (entries)
    retain: int = 8               # committed tail kept below the snapshot
    max_append_batch: int = 16    # smaller batches make replay cost visible
    craft_batch_size: int = 10
    seed: int = 11
    timeout: float = 600.0

    def commits(self, engine: str) -> int:
        if isinstance(self.total_commits, int):
            return self.total_commits
        return self.total_commits[engine]


@dataclass
class CatchupRun:
    """One rejoin: the victim recovers and catches up to ``target``."""

    target_commit: int            # commit point the rejoiner had to reach
    catchup_time: float           # recovery -> caught up (sim seconds)
    replayed_entries: int         # entries applied at the rejoiner
    installs: int                 # snapshots installed at the rejoiner
    counters: SnapshotCounters    # cluster-wide snapshot activity
    snapshot_bytes: int = 0       # wire size of the image (WAN cells)


@dataclass
class CatchupResult:
    config: CatchupConfig
    engine: str
    with_snapshots: CatchupRun
    without_snapshots: CatchupRun

    def table(self) -> ResultTable:
        table = ResultTable(
            f"Rejoin catch-up under churn -- {self.engine}",
            ["mode", "target", "replayed", "installs", "catchup (ms)"])
        for mode, run in (("full replay", self.without_snapshots),
                          ("snapshots", self.with_snapshots)):
            table.add_row(mode, run.target_commit, run.replayed_entries,
                          run.installs, run.catchup_time * 1000)
        table.add_note(self.with_snapshots.counters.format())
        table.add_note(
            f"crash after {self.config.warmup_commits} commits, recover "
            f"after {self.config.commits(self.engine)}; compaction "
            f"threshold {self.config.threshold}, retain "
            f"{self.config.retain}")
        return table

    def check_shape(self) -> None:
        snap, full = self.with_snapshots, self.without_snapshots
        require(full.installs == 0,
                "no snapshot may be installed with compaction disabled")
        require(snap.installs >= 1,
                "the rejoiner should catch up via InstallSnapshot")
        require(snap.counters.taken >= 1,
                "the compaction policy should have fired")
        require(snap.replayed_entries < full.replayed_entries,
                f"snapshots must replay strictly fewer entries "
                f"({snap.replayed_entries} vs {full.replayed_entries})")
        require(snap.catchup_time < full.catchup_time,
                f"snapshots must catch up strictly faster "
                f"({snap.catchup_time * 1000:.0f} ms vs "
                f"{full.catchup_time * 1000:.0f} ms)")


def _policy(config: CatchupConfig, snapshots: bool) -> CompactionPolicy | None:
    if not snapshots:
        return None
    return CompactionPolicy(threshold=config.threshold,
                            retain=config.retain)


# recovery_probe_timeout=0 in every catch-up spec: the tables measure
# transfer cost from the victim's recovery to full catch-up on the pinned
# pre-probe timeline (golden-pinned byte-identical); the probe handshake
# would shift every timestamp by resolving the rejoin before the election
# timeout the pinned runs wait out.

# ----------------------------------------------------------------------
# Single-cluster engines (classic Raft, Fast Raft)
# ----------------------------------------------------------------------
def catchup_flat_spec(config: CatchupConfig, engine: str, snapshots: bool
                      ) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"catchup.{engine}.{'snap' if snapshots else 'replay'}",
        engine=engine,
        topology=TopologySpec(n_sites=config.n_sites),
        timing=TimingConfig(max_append_batch=config.max_append_batch,
                            recovery_probe_timeout=0.0),
        state_machine=KVStateMachine,
        compaction=_policy(config, snapshots),
        schedule=EventSchedule((
            Event("crash", target="nonleader:0",
                  after_commits=config.warmup_commits),)),
        workload=WorkloadSpec(placement="leader",
                              requests=config.commits(engine)),
        # "snapshots" only labels the cell; ``compaction`` turns them on.
        drive="catchup", timeout=config.timeout,
        params={"snapshots": snapshots})


@drive("catchup")
def drive_catchup(cluster, spec: ScenarioSpec) -> CatchupRun:
    """Crash per schedule, finish the workload, then time the rejoin.

    A WAN cell (``params["chunked"]``) has also cut the victim's links
    at the crash; it checks the leader compacted past the crash point,
    reads the size of the image it will ship, and reconnects the victim
    before recovering it.
    """
    ctx = RunContext(cluster, spec)
    cluster.start_all()
    ctx.initial_leader = elect_flat_leader(cluster, spec)
    attach_workloads(cluster, spec, ctx, ctx.initial_leader)
    run_commit_triggered_events(ctx)
    victim = ctx.fired[0][2][0]
    run_workload_to_completion(ctx)
    leader_engine = cluster.servers[cluster.run_until_leader()].engine
    target = leader_engine.commit_index
    snapshot_bytes = 0
    if "chunked" in spec.params:
        if leader_engine.log.snapshot_index <= spec.params["warmup_commits"]:
            raise ExperimentError(
                "leader never compacted past the crash point")
        snapshot_bytes = snapshot_wire_size(
            leader_engine.snapshot_store.latest)
        ctx.faults.silent_return(victim)
    ctx.faults.recover(victim)
    started = cluster.loop.now()
    rejoined = cluster.run_until(
        lambda: cluster.servers[victim].engine.commit_index >= target,
        timeout=spec.timeout)
    if not rejoined:
        raise ExperimentError(
            f"{victim} caught up only to "
            f"{cluster.servers[victim].engine.commit_index}/{target}")
    catchup_time = cluster.loop.now() - started
    cluster.run_for(1.0)
    run_safety_checks(cluster.servers.values(), cluster.trace)
    recovered = cluster.servers[victim]
    return CatchupRun(
        target_commit=target, catchup_time=catchup_time,
        replayed_entries=len(recovered.applied_log),
        installs=recovered.engine.snapshots_installed,
        counters=tally_snapshots(s.engine
                                 for s in cluster.servers.values()),
        snapshot_bytes=snapshot_bytes)


# ----------------------------------------------------------------------
# C-Raft (the churned node is a cluster member)
# ----------------------------------------------------------------------
def catchup_craft_spec(config: CatchupConfig, snapshots: bool
                       ) -> ScenarioSpec:
    from repro.craft.batching import BatchPolicy
    return ScenarioSpec(
        name=f"catchup.craft.{'snap' if snapshots else 'replay'}",
        engine="craft",
        topology=TopologySpec(n_sites=6, regions=("east", "west")),
        timing=TimingConfig(max_append_batch=config.max_append_batch,
                            recovery_probe_timeout=0.0),
        batch=BatchPolicy(batch_size=config.craft_batch_size),
        state_machine=KVStateMachine,
        compaction=_policy(config, snapshots),
        latency=LatencySpec(kind="rtt_matrix",
                            rtts=(("east", "west", 0.080),)),
        schedule=EventSchedule((
            Event("crash", target="nonleader:0",
                  after_commits=config.warmup_commits),)),
        workload=WorkloadSpec(requests=config.commits("craft")),
        drive="catchup_craft", timeout=config.timeout,
        params={"snapshots": snapshots, "global_ready_timeout": 60.0})


@drive("catchup_craft")
def drive_catchup_craft(deployment, spec: ScenarioSpec) -> CatchupRun:
    """Same churn at the local level of the first C-Raft cluster."""
    ctx = RunContext(deployment, spec)
    deployment.start_all()
    deployment.run_until_local_leaders(timeout=spec.leader_timeout)
    deployment.run_until_global_ready(
        timeout=spec.params.get("global_ready_timeout", 60.0))
    topo = deployment.topology
    cluster_a = topo.clusters[0]
    leader_a = deployment.local_leader(cluster_a)
    # The crash event's "nonleader:0" resolves within the churned cluster.
    ctx.initial_leader = leader_a
    ctx.server_order = topo.nodes_in_cluster(cluster_a)
    client = deployment.add_client(site=leader_a)
    workload = ClosedLoopWorkload(client,
                                  max_requests=spec.workload.requests)
    ctx.clients.append(client)
    ctx.workloads.append(workload)
    workload.start()
    run_commit_triggered_events(ctx)
    victim = ctx.fired[0][2][0]
    run_workload_to_completion(ctx)
    leader_now = deployment.local_leader(cluster_a)
    target = deployment.servers[leader_now].local_engine.commit_index
    ctx.faults.recover(victim)
    started = deployment.loop.now()
    rejoined = deployment.run_until(
        lambda: (deployment.servers[victim].local_engine.commit_index
                 >= target),
        timeout=spec.timeout, step=0.01)
    if not rejoined:
        raise ExperimentError(
            f"{victim} caught up only to "
            f"{deployment.servers[victim].local_engine.commit_index}"
            f"/{target}")
    catchup_time = deployment.loop.now() - started
    deployment.run_for(2.0)
    _check_craft_consistency(deployment, topo, cluster_a)
    recovered = deployment.servers[victim]
    return CatchupRun(
        target_commit=target, catchup_time=catchup_time,
        replayed_entries=len(recovered.applied_log),
        installs=recovered.local_engine.snapshots_installed,
        counters=tally_snapshots(
            s.local_engine for s in deployment.servers.values()))


def _check_craft_consistency(deployment, topo, cluster_name: str) -> None:
    """Local committed-prefix agreement in the churned cluster, plus
    global state-machine agreement across every site at the same global
    apply point (the snapshot path must not introduce divergence)."""
    engines = [deployment.servers[n].local_engine
               for n in topo.nodes_in_cluster(cluster_name)]
    check_committed_prefix_agreement(engines)
    check_images_agree(
        ((s.global_applied_index, s.global_state_machine.snapshot(), s.name)
         for s in deployment.servers.values()
         if s.global_state_machine is not None),
        what="global state machines")


def catchup_cells(config: CatchupConfig) -> list[Cell]:
    def spec(engine: str, snapshots: bool) -> ScenarioSpec:
        if engine == "craft":
            return catchup_craft_spec(config, snapshots)
        return catchup_flat_spec(config, engine, snapshots)
    return [Cell(key=(engine, snapshots), spec=spec(engine, snapshots),
                 seed=config.seed)
            for engine in config.engines for snapshots in (True, False)]


register_scenario(Scenario(
    name="catchup",
    description="Rejoin catch-up under churn, snapshots vs full replay, "
                "all three engines",
    config=CatchupConfig,
    presets={"quick": {"total_commits": {"raft": 120, "fastraft": 120,
                                         "craft": 100}},
             # Just enough commits for one compaction cycle past the
             # crash point (keeps the shape checks meaningful).
             "smoke": {"warmup_commits": 10, "total_commits": 70,
                       "threshold": 25, "retain": 4}},
    cells=catchup_cells,
    assemble=lambda config, runs: [
        CatchupResult(config, engine, runs[(engine, True)],
                      runs[(engine, False)])
        for engine in config.engines]))


# ----------------------------------------------------------------------
# WAN variant: bandwidth-limited links, monolithic vs chunked transfer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WanCatchupConfig:
    """Rejoin over a constrained WAN link, with the size-aware cost model
    active: every message is charged ``size / bandwidth`` serialization
    delay, so a monolithic InstallSnapshot pays for the whole image in
    one gulp while chunked transfer overlaps its chunks with the acks in
    flight. Run at several snapshot sizes to expose the scaling."""

    engine: str = "fastraft"      # a flat engine: raft or fastraft
    n_sites: int = 5
    #: Commits before the recovery, per size point: more commits => more
    #: distinct keys => a bigger state image to ship.
    size_points: tuple[int, ...] = (80, 200)
    warmup_commits: int = 8       # commits before the crash
    value_bytes: int = 2048       # per-entry payload (scales the image)
    threshold: int = 30           # compaction trigger (entries)
    retain: int = 4
    max_append_batch: int = 16
    one_way_latency: float = 0.040   # an 80 ms RTT WAN link
    bandwidth: float = 200_000.0     # simulated bytes/second
    chunk_size: int = 16384
    chunk_window: int = 8
    seed: int = 7
    timeout: float = 900.0


@dataclass
class WanCatchupResult:
    config: WanCatchupConfig
    #: ``(commits, chunked) -> run``: every size point in both modes.
    runs: dict[tuple[int, bool], CatchupRun]

    def _by_mode(self, chunked: bool) -> list[CatchupRun]:
        return sorted((run for (_, c), run in self.runs.items()
                       if c == chunked),
                      key=lambda run: run.snapshot_bytes)

    def table(self) -> ResultTable:
        table = ResultTable(
            f"WAN rejoin: monolithic vs chunked InstallSnapshot -- "
            f"{self.config.engine}",
            ["mode", "commits", "image (KB)", "chunks", "catchup (ms)"])
        rows = sorted(
            (("chunked" if chunked else "monolithic", commits, run)
             for (commits, chunked), run in self.runs.items()),
            key=lambda row: (row[0], row[2].snapshot_bytes))
        for mode, commits, run in rows:
            table.add_row(mode, commits, run.snapshot_bytes / 1024,
                          run.counters.chunks_sent, run.catchup_time * 1000)
        table.add_note(
            f"one-way latency {self.config.one_way_latency * 1000:.0f} ms, "
            f"bandwidth {self.config.bandwidth / 1000:.0f} KB/s, "
            f"chunk {self.config.chunk_size} B x window "
            f"{self.config.chunk_window}")
        return table

    def check_shape(self) -> None:
        mono = self._by_mode(False)
        chunked = self._by_mode(True)
        require(all(r.installs >= 1 for r in self.runs.values()),
                "every WAN rejoin must catch up via InstallSnapshot")
        require(all(r.counters.chunks_sent == 0 for r in mono),
                "monolithic runs must not send chunks")
        require(all(r.counters.chunks_sent > 1 for r in chunked),
                "chunked runs must actually split the transfer")
        for small, big in zip(mono, mono[1:]):
            require(big.catchup_time > small.catchup_time,
                    f"monolithic catch-up must grow with snapshot size "
                    f"({small.catchup_time * 1000:.0f} ms @ "
                    f"{small.snapshot_bytes} B vs "
                    f"{big.catchup_time * 1000:.0f} ms @ "
                    f"{big.snapshot_bytes} B)")
        for m, c in zip(mono, chunked):
            require(c.catchup_time < m.catchup_time,
                    f"chunked transfer must beat monolithic on a "
                    f"constrained link ({c.catchup_time * 1000:.0f} ms vs "
                    f"{m.catchup_time * 1000:.0f} ms at "
                    f"{m.snapshot_bytes} B)")


def wan_spec(config: WanCatchupConfig, total_commits: int,
             chunked: bool) -> ScenarioSpec:
    transfer = (TransferConfig(chunk_size=config.chunk_size,
                               chunk_window=config.chunk_window)
                if chunked else TransferConfig())
    # The crash also cuts the link: otherwise the leader keeps re-shipping
    # bulk transfers into the void, and whatever happens to be in flight
    # at recovery time would contaminate the measured catch-up window.
    schedule = EventSchedule((
        Event("crash", target="nonleader:0",
              after_commits=config.warmup_commits),
        Event("silent_leave", target="nonleader:0",
              after_commits=config.warmup_commits)))
    return ScenarioSpec(
        name=f"catchup_wan.{config.engine}."
             f"{'chunked' if chunked else 'mono'}.{total_commits}",
        engine=config.engine,
        topology=TopologySpec(n_sites=config.n_sites),
        timing=TimingConfig(max_append_batch=config.max_append_batch,
                            recovery_probe_timeout=0.0),
        state_machine=KVStateMachine,
        latency=LatencySpec.constant(config.one_way_latency,
                                     bandwidth=config.bandwidth),
        compaction=CompactionPolicy(threshold=config.threshold,
                                    retain=config.retain),
        transfer=transfer, schedule=schedule,
        workload=WorkloadSpec(placement="leader", requests=total_commits,
                              command="payload",
                              value_bytes=config.value_bytes),
        drive="catchup", timeout=config.timeout,
        params={"chunked": chunked,
                "warmup_commits": config.warmup_commits})


def wan_cells(config: WanCatchupConfig) -> list[Cell]:
    return [Cell(key=(total_commits, chunked),
                 spec=wan_spec(config, total_commits, chunked),
                 seed=config.seed)
            for total_commits in config.size_points
            for chunked in (False, True)]


register_scenario(Scenario(
    name="catchup_wan",
    description="WAN rejoin over a bandwidth-limited link: monolithic vs "
                "chunked InstallSnapshot",
    config=WanCatchupConfig,
    presets={"quick": {"size_points": (60, 150)},
             # Tiny, but still two sizes and both modes.
             "smoke": {"size_points": (40, 100), "value_bytes": 1024,
                       "threshold": 20, "bandwidth": 150_000.0,
                       "chunk_size": 8192}},
    cells=wan_cells, assemble=WanCatchupResult))
