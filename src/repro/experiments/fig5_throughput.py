"""Figure 5: global commit throughput of classic Raft vs C-Raft.

Paper setup: 20 sites split evenly over a varying number of clusters, one
cluster per AWS region; one closed-loop proposer per cluster; C-Raft
batches ten locally committed entries per global proposal; throughput is
entries committed to the global log, averaged over five 3-minute trials.
Intra-cluster heartbeat 100 ms, inter-cluster 500 ms.

Expected shape (paper): comparable at one cluster, C-Raft pulling ahead as
clusters multiply, reaching about 5x classic Raft at ten clusters.

The classic baseline spans the same sites in the same regions; its timing
uses the intra-cluster preset when everything sits in one region and the
inter-cluster preset once the deployment is geo-distributed, mirroring
how the paper configures heartbeats per deployment scope.

Every (protocol, cluster count, trial) is one scenario cell sharing the
``throughput_window`` drive, so the whole grid parallelizes across
worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consensus.timing import TimingConfig
from repro.craft.batching import BatchPolicy
from repro.experiments.base import ResultTable, cell_seed, require
from repro.experiments.regions import regions_for
from repro.net.topology import Topology
from repro.scenarios.registry import Scenario, register_scenario
from repro.scenarios.spec import (
    Cell,
    LatencySpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.smr.kv import KVStateMachine


@dataclass(frozen=True)
class Fig5Config:
    total_sites: int = 20
    cluster_counts: tuple[int, ...] = (1, 2, 4, 5, 10)
    batch_size: int = 10
    #: Batches are proposed as soon as ten local commits accumulate (the
    #: paper places no wait on the previous batch), so several may be in
    #: flight; this bounds the pipeline.
    max_outstanding_batches: int = 8
    trial_duration: float = 180.0   # paper: 3-minute trials
    trials: int = 5
    warmup: float = 20.0            # excluded from the measurement window
    seed: int = 0


@dataclass
class Fig5Point:
    clusters: int
    classic_throughput: float   # entries/s committed to the (global) log
    craft_throughput: float

    @property
    def speedup(self) -> float:
        return self.craft_throughput / self.classic_throughput


@dataclass
class Fig5Result:
    config: Fig5Config
    points: list[Fig5Point]

    def table(self) -> ResultTable:
        table = ResultTable(
            "Fig. 5 -- global commit throughput vs cluster count (entries/s)",
            ["clusters", "classic Raft", "C-Raft", "speedup"])
        for point in self.points:
            table.add_row(point.clusters, point.classic_throughput,
                          point.craft_throughput, point.speedup)
        table.add_note(f"{self.config.total_sites} sites, batch size "
                       f"{self.config.batch_size}, "
                       f"{self.config.trials} x "
                       f"{self.config.trial_duration:.0f}s trials, one "
                       f"closed-loop proposer per cluster")
        return table

    def check_shape(self) -> None:
        single = self.points[0]
        require(single.clusters == 1, "first point should be one cluster")
        require(0.4 <= single.speedup <= 2.5,
                f"protocols should be comparable at one cluster, got "
                f"{single.speedup:.2f}x")
        most = self.points[-1]
        require(most.speedup >= 3.0,
                f"C-Raft should win by several x at {most.clusters} "
                f"clusters, got {most.speedup:.2f}x")
        speedups = [p.speedup for p in self.points]
        require(speedups[-1] > speedups[0],
                "C-Raft's advantage should grow with cluster count")


def _grid(config: Fig5Config, cluster_count: int
          ) -> tuple[list[str], Topology]:
    regions = regions_for(cluster_count)
    return regions, Topology.even_clusters(config.total_sites, regions)


def fig5_classic_spec(config: Fig5Config, cluster_count: int
                      ) -> ScenarioSpec:
    """One flat Raft group spanning every region of the grid point."""
    regions, topology = _grid(config, cluster_count)
    timing = (TimingConfig.intra_cluster() if cluster_count == 1
              else TimingConfig.inter_cluster())
    return ScenarioSpec(
        name=f"fig5.classic.c{cluster_count}", engine="raft",
        topology=TopologySpec(n_sites=config.total_sites,
                              regions=tuple(regions)),
        timing=timing, latency=LatencySpec.aws_regions(),
        trace=False, state_machine=KVStateMachine,
        workload=WorkloadSpec(
            placement="sites",
            sites=tuple(topology.nodes_in_region(r)[0] for r in regions),
            client_names=tuple(f"client.{r}" for r in regions),
            command="keyed", prefixes=tuple(regions)),
        drive="throughput_window", leader_timeout=60.0,
        params={"warmup": config.warmup,
                "duration": config.trial_duration,
                "leader_step": 0.1})


def fig5_craft_spec(config: Fig5Config, cluster_count: int) -> ScenarioSpec:
    regions, topology = _grid(config, cluster_count)
    return ScenarioSpec(
        name=f"fig5.craft.c{cluster_count}", engine="craft",
        topology=TopologySpec(n_sites=config.total_sites,
                              regions=tuple(regions)),
        timing=TimingConfig.intra_cluster(),
        global_timing=TimingConfig.inter_cluster(),
        batch=BatchPolicy(batch_size=config.batch_size,
                          max_outstanding=config.max_outstanding_batches),
        latency=LatencySpec.aws_regions(),
        trace=False, state_machine=KVStateMachine,
        workload=WorkloadSpec(
            placement="sites",
            sites=tuple(topology.nodes_in_cluster(r)[0] for r in regions),
            command="keyed", prefixes=tuple(regions)),
        drive="throughput_window",
        params={"warmup": config.warmup,
                "duration": config.trial_duration,
                "global_ready_timeout": 90.0})


def fig5_cells(config: Fig5Config) -> list[Cell]:
    cells = []
    for cluster_count in config.cluster_counts:
        for trial in range(config.trials):
            cells.append(Cell(
                key=("classic", cluster_count, trial),
                spec=fig5_classic_spec(config, cluster_count),
                seed=cell_seed(config.seed, "classic", cluster_count,
                               trial)))
            cells.append(Cell(
                key=("craft", cluster_count, trial),
                spec=fig5_craft_spec(config, cluster_count),
                seed=cell_seed(config.seed, "craft", cluster_count,
                               trial)))
    return cells


def fig5_result(config: Fig5Config, rates: dict) -> Fig5Result:
    points = []
    for cluster_count in config.cluster_counts:
        classic = [rates[("classic", cluster_count, t)]
                   for t in range(config.trials)]
        craft = [rates[("craft", cluster_count, t)]
                 for t in range(config.trials)]
        points.append(Fig5Point(
            clusters=cluster_count,
            classic_throughput=sum(classic) / len(classic),
            craft_throughput=sum(craft) / len(craft)))
    return Fig5Result(config=config, points=points)


register_scenario(Scenario(
    name="fig5",
    description="Global commit throughput vs cluster count, classic Raft "
                "vs C-Raft (Fig. 5)",
    config=Fig5Config,
    presets={"quick": {"cluster_counts": (1, 4, 10), "trial_duration": 40.0,
                       "trials": 1, "warmup": 10.0},
             "smoke": {"cluster_counts": (1, 10), "trial_duration": 30.0,
                       "trials": 1, "warmup": 10.0}},
    cells=fig5_cells, assemble=fig5_result))
