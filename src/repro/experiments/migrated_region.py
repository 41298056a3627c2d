"""Migrated-region-at-scale: gated global snapshot catch-up for a whole
cluster that comes online after the global log has been compacted.

ROADMAP open item: C-Raft's *global* compaction path was exercised only
by a 7-node unit test (``test_late_region_catches_up_via_gated_global
_snapshot``). This scenario scales it to a multi-cluster deployment with
``global_compaction`` enabled by default: several regions commit batches
while one region is still being migrated in; by the time the migrated
region boots, the global log prefix it needs is gone, so the global
leader must ship a global InstallSnapshot -- which C-Raft *gates through
the new cluster's local consensus* (a GLOBAL_STATE entry carrying the
image) so every site of the region adopts the same view at the same
local index.

The spec declares the deployment (topology, batching, both compaction
levels); the drive holds the measurement logic: start everything except
the migrated region, run the workload past global compaction, then boot
the region and time its catch-up through the gated path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consensus.entry import EntryKind
from repro.craft.batching import BatchPolicy
from repro.errors import ExperimentError
from repro.experiments.base import ResultTable, require
from repro.experiments.regions import regions_for
from repro.harness.checkers import check_images_agree
from repro.harness.workload import ClosedLoopWorkload
from repro.scenarios.registry import Scenario, register_scenario
from repro.scenarios.runner import RunContext, drive
from repro.scenarios.spec import (
    Cell,
    LatencySpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.smr.kv import KVStateMachine
from repro.snapshot import CompactionPolicy


@dataclass(frozen=True)
class MigratedRegionConfig:
    clusters: int = 4             # regions, one C-Raft cluster each
    sites_per_cluster: int = 3
    requests: int = 100           # commits before the migration lands
    batch_size: int = 5
    local_threshold: int = 30     # local compaction trigger
    local_retain: int = 4
    global_threshold: int = 6     # global compaction trigger (batches)
    global_retain: int = 1
    seed: int = 6
    timeout: float = 600.0

    @property
    def total_sites(self) -> int:
        return self.clusters * self.sites_per_cluster


@dataclass
class MigratedRegionResult:
    config: MigratedRegionConfig
    migrated_cluster: str
    catchup_time: float           # region boot -> all sites caught up
    installs: int                 # global snapshots installed in the region
    gated_sites: int              # region sites that adopted via the gate
    global_snapshots_taken: int   # across every global engine
    global_applied: int           # entries applied from the global log

    def table(self) -> ResultTable:
        table = ResultTable(
            "Migrated region at scale -- gated global snapshot catch-up",
            ["sites", "clusters", "commits", "global snaps", "installs",
             "gated sites", "catchup (ms)"])
        table.add_row(self.config.total_sites, self.config.clusters,
                      self.config.requests, self.global_snapshots_taken,
                      self.installs, self.gated_sites,
                      self.catchup_time * 1000)
        table.add_note(
            f"region {self.migrated_cluster!r} booted after global "
            f"compaction (threshold {self.config.global_threshold} "
            f"batches, retain {self.config.global_retain})")
        return table

    def check_shape(self) -> None:
        require(self.global_snapshots_taken >= 1,
                "the global compaction policy should have fired")
        require(self.installs >= 1,
                "the migrated region must catch up via a global "
                "InstallSnapshot")
        require(self.gated_sites == self.config.sites_per_cluster,
                f"every site of the migrated region must adopt the image "
                f"through local consensus "
                f"({self.gated_sites}/{self.config.sites_per_cluster})")
        require(self.global_applied > 0,
                "the migrated region must apply global entries")


@drive("migrated_region")
def drive_migrated_region(deployment, spec: ScenarioSpec) -> dict:
    """Boot all but one region, outrun global compaction, then migrate
    the last region in and time its gated catch-up."""
    ctx = RunContext(deployment, spec)
    topo = deployment.topology
    migrated = spec.params["migrated_cluster"]
    late_sites = topo.nodes_in_cluster(migrated)
    others = [c for c in topo.clusters if c != migrated]
    for name, server in deployment.servers.items():
        if name not in late_sites:
            server.start()

    def others_ready() -> bool:
        if deployment.global_leader() is None:
            return False
        for cluster in others:
            leader = deployment.local_leader(cluster)
            if leader is None:
                return False
            engine = deployment.servers[leader].global_engine
            if engine is None or not engine.is_member:
                return False
        return True

    ready_timeout = spec.params.get("global_ready_timeout", 90.0)
    if not deployment.run_until(others_ready, timeout=ready_timeout):
        raise ExperimentError("running regions never became globally ready")
    client = deployment.add_client(
        site=deployment.local_leader(others[0]))
    workload = ClosedLoopWorkload(client,
                                  max_requests=spec.workload.requests)
    ctx.workloads.append(workload)
    workload.start()
    run_ok = deployment.run_until(lambda: workload.done,
                                  timeout=spec.timeout)
    if not run_ok:
        raise ExperimentError(
            f"finished only {workload.completed_count}"
            f"/{spec.workload.requests} commits")

    def global_compacted() -> bool:
        leader = deployment.global_leader()
        if leader is None:
            return False
        engine = deployment.servers[leader].global_engine
        return engine is not None and engine.log.snapshot_index > 0

    if not deployment.run_until(global_compacted, timeout=spec.timeout):
        raise ExperimentError("global log never compacted")

    # The migration lands: the region boots with an empty history.
    for name in late_sites:
        deployment.servers[name].start()
    started = deployment.loop.now()

    def region_caught_up() -> bool:
        leader = deployment.local_leader(migrated)
        if leader is None:
            return False
        engine = deployment.servers[leader].global_engine
        if engine is None or not engine.is_member:
            return False
        return all(deployment.servers[n].global_applied_index > 0
                   for n in late_sites)

    if not deployment.run_until(region_caught_up, timeout=spec.timeout):
        raise ExperimentError(
            f"migrated region {migrated!r} never caught up")
    catchup_time = deployment.loop.now() - started
    deployment.run_for(5.0)
    check_images_agree(
        ((s.global_applied_index, s.global_state_machine.snapshot(),
          s.name) for s in deployment.servers.values()
         if s.global_state_machine is not None),
        what="global state machines")

    def gated_at(site: str) -> bool:
        return any(e.kind is EntryKind.GLOBAL_STATE
                   and e.payload.snapshot is not None
                   for _, e in deployment.servers[site].applied_log)

    installs = sum(
        s.global_engine.snapshots_installed
        for s in (deployment.servers[n] for n in late_sites)
        if s.global_engine is not None)
    taken = sum(
        s.global_engine.snapshots_taken
        for s in deployment.servers.values()
        if s.global_engine is not None)
    return {"migrated_cluster": migrated,
            "catchup_time": catchup_time,
            "installs": installs,
            "gated_sites": sum(1 for n in late_sites if gated_at(n)),
            "global_snapshots_taken": taken,
            "global_applied": min(deployment.servers[n].global_applied_index
                                  for n in late_sites)}


def migrated_region_spec(config: MigratedRegionConfig) -> ScenarioSpec:
    regions = regions_for(config.clusters)
    return ScenarioSpec(
        name="migrated_region", engine="craft",
        topology=TopologySpec(n_sites=config.total_sites,
                              regions=tuple(regions)),
        batch=BatchPolicy(batch_size=config.batch_size),
        compaction=CompactionPolicy(threshold=config.local_threshold,
                                    retain=config.local_retain),
        global_compaction=CompactionPolicy(
            threshold=config.global_threshold,
            retain=config.global_retain),
        latency=LatencySpec.aws_regions(),
        state_machine=KVStateMachine,
        workload=WorkloadSpec(requests=config.requests),
        drive="migrated_region", timeout=config.timeout,
        # The migrated region must not host the global bootstrap seed
        # (the builder seeds the first cluster in sorted order), so the
        # *last* sorted region is the one that comes online late.
        params={"migrated_cluster": sorted(regions)[-1]})


def migrated_region_cells(config: MigratedRegionConfig) -> list[Cell]:
    return [Cell(key=("migrate",), spec=migrated_region_spec(config),
                 seed=config.seed)]


register_scenario(Scenario(
    name="migrated_region",
    description="A whole region migrates in after global compaction and "
                "catches up via the gated global snapshot path",
    config=MigratedRegionConfig,
    presets={"quick": {}, "smoke": {"clusters": 3, "requests": 60}},
    cells=migrated_region_cells,
    assemble=lambda config, results: MigratedRegionResult(
        config=config, **results[("migrate",)])))
