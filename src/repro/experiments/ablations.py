"""Ablation sweeps over the reproduction's design knobs.

Not figures from the paper -- these quantify the sensitivity of the
reproduction to the choices the paper leaves open:

- **decision interval** -- the calibration knob behind the Fig. 3 ratio:
  the leader's decision cadence relative to the heartbeat.
- **dispatch policy** -- tick-driven AppendEntries (the paper's
  implementation) vs eager dispatch on arrival.
- **batch size** -- C-Raft's local-entries-per-global-proposal.
- **proposer count** -- contention on Fast Raft's fast track (the
  paper's liveness discussion assumes no concurrent proposals).

All four sweeps share two scenario shapes (a flat latency cell and a
C-Raft throughput cell); the registered scenario submits every cell of
every sweep as one batch so ``--jobs N`` parallelizes across tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.consensus.timing import TimingConfig
from repro.craft.batching import BatchPolicy
from repro.experiments.base import ResultTable, cell_seed
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


@dataclass(frozen=True)
class AblationConfig:
    commits: int = 100
    seed: int = 0
    decision_fractions: tuple[float, ...] = (0.1, 0.25, 0.5, 1.0)
    batch_sizes: tuple[int, ...] = (1, 5, 10, 20)
    proposer_counts: tuple[int, ...] = (1, 2, 3, 5)
    craft_clusters: int = 4
    craft_sites: int = 8
    craft_duration: float = 120.0


def _flat_cell(key: tuple, engine: str, timing: TimingConfig, seed: int,
               commits: int, proposers: int = 1) -> Cell:
    """The old ``_mean_latency`` shape as a spec: 5 sites, round-robin
    proposers, mean commit latency over every proposer's commits."""
    spec = ScenarioSpec(
        name=f"ablation.{engine}.p{proposers}", engine=engine,
        topology=TopologySpec(n_sites=5), timing=timing,
        workload=WorkloadSpec(
            placement="round_robin", proposers=proposers,
            requests=commits, proposal_timeout=0.3, command="keyed",
            prefixes=tuple(f"p{i}" for i in range(proposers))),
        probe="mean_latency", safety_checks=False, timeout=600.0)
    return Cell(key=key, spec=spec, seed=seed)


def _craft_cell(key: tuple, config: AblationConfig, batch_size: int,
                seed: int) -> Cell:
    regions = regions_for(config.craft_clusters)
    topology = Topology.even_clusters(config.craft_sites, regions)
    spec = ScenarioSpec(
        name=f"ablation.batch{batch_size}", engine="craft",
        topology=TopologySpec(n_sites=config.craft_sites,
                              regions=tuple(regions)),
        batch=BatchPolicy(batch_size=batch_size, max_outstanding=8),
        latency=LatencySpec.aws_regions(), trace=False,
        workload=WorkloadSpec(
            placement="sites",
            sites=tuple(topology.nodes_in_cluster(r)[0] for r in regions)),
        drive="throughput_window",
        params={"warmup": 10.0, "duration": config.craft_duration,
                "global_ready_timeout": 90.0})
    return Cell(key=key, spec=spec, seed=seed)


# ----------------------------------------------------------------------
# Cell grids, one per table
# ----------------------------------------------------------------------
def decision_cells(config: AblationConfig) -> list[Cell]:
    base = TimingConfig.intra_cluster()
    return [
        _flat_cell(("decision", fraction), "fastraft",
                   replace(base, decision_interval=(
                       base.heartbeat_interval * fraction)),
                   cell_seed(config.seed, "decision", fraction),
                   config.commits)
        for fraction in config.decision_fractions]


def dispatch_cells(config: AblationConfig) -> list[Cell]:
    base = TimingConfig.intra_cluster()
    cells = []
    for name, engine in (("classic Raft", "raft"),
                         ("Fast Raft", "fastraft")):
        cells.append(_flat_cell(("dispatch", name, "tick"), engine, base,
                                cell_seed(config.seed, "tick", name),
                                config.commits))
        cells.append(_flat_cell(("dispatch", name, "eager"), engine,
                                replace(base, eager_append=True),
                                cell_seed(config.seed, "eager", name),
                                config.commits))
    return cells


def proposer_cells(config: AblationConfig) -> list[Cell]:
    base = TimingConfig.intra_cluster()
    return [
        _flat_cell(("proposers", count), "fastraft", base,
                   cell_seed(config.seed, "proposers", count),
                   config.commits, proposers=count)
        for count in config.proposer_counts]


def batch_cells(config: AblationConfig) -> list[Cell]:
    return [
        _craft_cell(("batch", batch_size), config, batch_size,
                    cell_seed(config.seed, "batch", batch_size))
        for batch_size in config.batch_sizes]


# ----------------------------------------------------------------------
# Table assembly
# ----------------------------------------------------------------------
def decision_table(config: AblationConfig, results: dict) -> ResultTable:
    table = ResultTable(
        "Ablation -- Fast Raft latency vs decision interval",
        ["decision/heartbeat", "decision ms", "mean latency ms"])
    base = TimingConfig.intra_cluster()
    for fraction in config.decision_fractions:
        timing = replace(
            base, decision_interval=base.heartbeat_interval * fraction)
        table.add_row(fraction, timing.effective_decision_interval * 1000,
                      results[("decision", fraction)] * 1000)
    table.add_note("fast-track latency tracks the decision cadence; the "
                   "default (0.5x heartbeat) yields the paper's 2x ratio")
    return table


def dispatch_table(config: AblationConfig, results: dict) -> ResultTable:
    table = ResultTable(
        "Ablation -- AppendEntries dispatch policy (mean latency ms)",
        ["protocol", "tick-driven", "eager"])
    for name in ("classic Raft", "Fast Raft"):
        table.add_row(name,
                      results[("dispatch", name, "tick")] * 1000,
                      results[("dispatch", name, "eager")] * 1000)
    table.add_note("the paper's prototype is tick-driven; eager dispatch "
                   "removes the half-heartbeat queueing from the classic "
                   "track")
    return table


def proposer_table(config: AblationConfig, results: dict) -> ResultTable:
    table = ResultTable(
        "Ablation -- Fast Raft latency vs concurrent proposers",
        ["proposers", "mean latency ms"])
    for count in config.proposer_counts:
        table.add_row(count, results[("proposers", count)] * 1000)
    table.add_note("concurrent proposals contend for indices; conflicts "
                   "fall back to the classic track (Section IV-F)")
    return table


def batch_table(config: AblationConfig, results: dict) -> ResultTable:
    table = ResultTable(
        "Ablation -- C-Raft throughput vs batch size (entries/s)",
        ["batch size", "global throughput"])
    for batch_size in config.batch_sizes:
        table.add_row(batch_size, results[("batch", batch_size)])
    table.add_note("larger batches amortize inter-cluster consensus; "
                   "batch size 1 degenerates to one global round per "
                   "entry")
    return table


register_scenario(Scenario(
    name="ablations",
    description="Design-knob sweeps: decision interval, dispatch policy, "
                "proposer contention, batch size",
    config=AblationConfig,
    presets={"quick": {"commits": 20, "decision_fractions": (0.25, 0.5, 1.0),
                       "batch_sizes": (1, 10), "proposer_counts": (1, 3),
                       "craft_duration": 30.0},
             "smoke": {"commits": 10, "decision_fractions": (0.5, 1.0),
                       "batch_sizes": (1, 10), "proposer_counts": (1, 2),
                       "craft_duration": 20.0}},
    # Every sweep's cells in one batch, so --jobs N spans all tables.
    cells=lambda config: (decision_cells(config) + dispatch_cells(config)
                          + proposer_cells(config) + batch_cells(config)),
    assemble=lambda config, results: [
        table(config, results) for table in (
            decision_table, dispatch_table, proposer_table, batch_table)]))
