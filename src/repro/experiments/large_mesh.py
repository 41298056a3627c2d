"""Large-mesh scenario: C-Raft across >= 6 clusters x 5 nodes under
flapping inter-region links.

The paper's own figures stop at 20 sites; this scenario is the dynamic-
network workload the scenario subsystem was built to express, small enough for CI
smoke: thirty
sites running two consensus levels each, with one region's WAN uplink
flapping on a cycle (the short-lived-stability regime of Winkler et
al.) while every cluster keeps proposing. The metric is the Fig. 5
metric -- entries committed to the global log per second over a
measurement window -- now under sustained churn of the mesh itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consensus.timing import TimingConfig
from repro.craft.batching import BatchPolicy
from repro.errors import ExperimentError
from repro.experiments.base import ResultTable, cell_seed, require
from repro.experiments.regions import regions_for
from repro.net.topology import Topology
from repro.scenarios.registry import Scenario, register_scenario
from repro.scenarios.spec import (
    Cell,
    EventSchedule,
    LatencySpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.smr.kv import KVStateMachine


@dataclass(frozen=True)
class LargeMeshConfig:
    clusters: int = 6
    sites_per_cluster: int = 5
    batch_size: int = 10
    max_outstanding_batches: int = 8
    duration: float = 60.0        # measurement window (sim seconds)
    warmup: float = 12.0          # after global ready, before measuring
    #: Flapping cycle for the cut region's WAN uplink. ``first_outage``
    #: is absolute sim time; election + global bootstrap finish well
    #: before it at every scale this scenario registers.
    first_outage: float = 30.0
    outage: float = 2.0
    stable: float = 4.0
    cycles: int = 8
    seed: int = 5

    def __post_init__(self) -> None:
        if self.clusters < 6 or self.sites_per_cluster < 5:
            raise ExperimentError(
                "large_mesh means large: >= 6 clusters x 5 sites "
                f"(got {self.clusters} x {self.sites_per_cluster})")

    @property
    def total_sites(self) -> int:
        return self.clusters * self.sites_per_cluster


@dataclass
class LargeMeshResult:
    config: LargeMeshConfig
    throughput: float             # global commits/s under flapping

    def table(self) -> ResultTable:
        config = self.config
        table = ResultTable(
            "Large mesh -- C-Raft global throughput under a flapping "
            "WAN uplink (entries/s)",
            ["clusters", "sites", "throughput"])
        table.add_row(config.clusters, config.total_sites, self.throughput)
        table.add_note(
            f"{config.cycles} cycles of {config.outage:.1f}s outage / "
            f"{config.stable:.1f}s stability cutting one region; "
            f"{config.duration:.0f}s window, batch {config.batch_size}")
        return table

    def check_shape(self) -> None:
        require(self.throughput > 0.0,
                "the mesh must keep committing globally while one "
                f"region flaps (got {self.throughput:.2f}/s)")


def large_mesh_spec(config: LargeMeshConfig) -> ScenarioSpec:
    regions = regions_for(config.clusters)
    topology = Topology.even_clusters(config.total_sites, regions)
    # The last region's uplink flaps: everyone else in one group, the
    # cut cluster in the other. Intra-cluster links stay up throughout,
    # so its local consensus survives each outage and rejoins the
    # global level in the stability windows.
    cut = regions[-1]
    cut_sites = tuple(topology.nodes_in_cluster(cut))
    rest = tuple(n for n in topology.nodes if n not in cut_sites)
    return ScenarioSpec(
        name="large_mesh", engine="craft",
        topology=TopologySpec(n_sites=config.total_sites,
                              regions=tuple(regions)),
        timing=TimingConfig.intra_cluster(),
        global_timing=TimingConfig.inter_cluster(),
        batch=BatchPolicy(batch_size=config.batch_size,
                          max_outstanding=config.max_outstanding_batches),
        latency=LatencySpec.aws_regions(),
        schedule=EventSchedule.flapping_link(
            (rest, cut_sites), first_outage=config.first_outage,
            outage=config.outage, stable=config.stable,
            cycles=config.cycles),
        trace=False, state_machine=KVStateMachine,
        workload=WorkloadSpec(
            placement="sites",
            sites=tuple(topology.nodes_in_cluster(r)[0] for r in regions),
            command="keyed", prefixes=tuple(regions)),
        drive="throughput_window",
        params={"warmup": config.warmup, "duration": config.duration,
                "global_ready_timeout": 120.0})


def large_mesh_cells(config: LargeMeshConfig) -> list[Cell]:
    return [Cell(key=("large_mesh",), spec=large_mesh_spec(config),
                 seed=cell_seed(config.seed, "large_mesh"))]


register_scenario(Scenario(
    name="large_mesh",
    description="6x5 C-Raft mesh with a flapping WAN uplink: global "
                "throughput under sustained dynamic-network churn",
    config=LargeMeshConfig,
    # Smoke still runs the full 6x5 mesh -- shrinking the topology would
    # defeat the point of smoking it; only the window shortens.
    presets={"quick": {"duration": 30.0, "cycles": 5},
             "smoke": {"duration": 18.0, "warmup": 8.0,
                       "first_outage": 24.0, "outage": 1.5, "stable": 3.0,
                       "cycles": 4}},
    cells=large_mesh_cells,
    assemble=lambda config, results: LargeMeshResult(
        config=config, throughput=results[("large_mesh",)])))
