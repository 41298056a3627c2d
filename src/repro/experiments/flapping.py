"""Flapping-WAN-link scenario: consensus under short-lived stability.

Related work (Winkler et al., "Consensus in Rooted Dynamic Networks with
Short-Lived Stability", PAPERS.md) studies exactly this regime: the
network is mostly partitioned and only intermittently stable, and
consensus must land its rounds inside the stability windows. None of the
paper's own figures exercise it -- and before the scenario subsystem we
could not express it without writing a seventh driver.

Here it is purely declarative: a two-region Raft cluster (three core
sites, two edge sites across a WAN link), a proposer on the *edge* side,
and an :class:`~repro.scenarios.spec.EventSchedule` built by
``EventSchedule.flapping_link`` that cuts and heals the WAN link on a
cycle. While the link is down the edge proposer's traffic cannot reach
the core majority, so its commits cluster into the stability windows;
the probe classifies every commit by completion time against the
schedule's outage intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.base import ResultTable, require
from repro.metrics.summary import summarize
from repro.scenarios.registry import Scenario, register_scenario
from repro.scenarios.runner import RunContext, probe
from repro.scenarios.spec import (
    Cell,
    EventSchedule,
    LatencySpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

CORE = ("n0", "n1", "n2")
EDGE = ("n3", "n4")


@dataclass(frozen=True)
class FlappingConfig:
    requests: int = 60            # commits the edge proposer must land
    first_outage: float = 2.0     # initial calm (election + warmup)
    outage: float = 0.8           # seconds the WAN link is down per cycle
    stable: float = 1.5           # stability-window length
    cycles: int = 6
    wan_rtt: float = 0.080        # core <-> edge round trip
    seed: int = 3
    timeout: float = 300.0


@dataclass
class FlappingResult:
    config: FlappingConfig
    completed: int
    stable_commits: int           # completions inside stability windows
    outage_commits: int           # completions while the link was down
    mean_latency: float
    max_latency: float
    outage_time: float            # total seconds the link was down
    duration: float               # sim time to land every commit

    def table(self) -> ResultTable:
        table = ResultTable(
            "Flapping WAN link -- edge-proposer commits vs stability "
            "windows",
            ["commits", "in stable window", "during outage", "mean ms",
             "max ms"])
        table.add_row(self.completed, self.stable_commits,
                      self.outage_commits, self.mean_latency * 1000,
                      self.max_latency * 1000)
        table.add_note(
            f"{self.config.cycles} cycles of {self.config.outage:.1f}s "
            f"outage / {self.config.stable:.1f}s stability; link down "
            f"{self.outage_time:.1f}s of {self.duration:.1f}s total")
        return table

    def check_shape(self) -> None:
        require(self.completed == self.config.requests,
                f"every proposal must eventually commit "
                f"({self.completed}/{self.config.requests})")
        require(self.stable_commits >= 4 * max(1, self.outage_commits),
                f"commits should cluster into the stability windows "
                f"({self.stable_commits} stable vs "
                f"{self.outage_commits} during outages)")
        require(self.max_latency > self.config.outage,
                f"some proposal should have spanned an outage "
                f"(max {self.max_latency:.2f}s vs outage "
                f"{self.config.outage:.2f}s)")


@probe("flap_phases")
def probe_flap_phases(ctx: RunContext) -> dict:
    """Classify each committed proposal by completion time against the
    outage windows as they *actually fired* (startup can clamp an early
    scheduled event later than declared, so ``ctx.fired`` is the truth)."""
    outages = []
    start = None
    for when, event, _ in ctx.fired:
        if event.action == "partition" and start is None:
            start = when
        elif event.action == "heal_partition" and start is not None:
            outages.append((start, when))
            start = None
    if start is not None:
        # The run ended (workload done + settle) before the final heal
        # fired: the link was down through the end of the measurement.
        outages.append((start, ctx.system.loop.now()))

    def in_outage(when: float) -> bool:
        return any(start <= when < end for start, end in outages)

    records = [r for r in ctx.workloads[0].records if r.done]
    outage_commits = sum(1 for r in records if in_outage(r.committed_at))
    stats = summarize([r.latency for r in records])
    return {"completed": len(records),
            "stable_commits": len(records) - outage_commits,
            "outage_commits": outage_commits,
            "mean_latency": stats.mean,
            "max_latency": stats.maximum,
            "outage_time": sum(end - start for start, end in outages),
            "duration": max(r.committed_at for r in records)}


def flapping_spec(config: FlappingConfig) -> ScenarioSpec:
    return ScenarioSpec(
        name="flapping_wan", engine="raft",
        topology=TopologySpec(n_sites=5, regions=("core", "edge"),
                              region_sizes=(3, 2)),
        latency=LatencySpec(kind="rtt_matrix",
                            rtts=(("core", "edge", config.wan_rtt),)),
        schedule=EventSchedule.flapping_link(
            (CORE, EDGE), first_outage=config.first_outage,
            outage=config.outage, stable=config.stable,
            cycles=config.cycles),
        workload=WorkloadSpec(placement="sites", sites=(EDGE[0],),
                              requests=config.requests),
        probe="flap_phases", settle=1.0, timeout=config.timeout)


def flapping_cells(config: FlappingConfig) -> list[Cell]:
    return [Cell(key=("flap",), spec=flapping_spec(config),
                 seed=config.seed)]


register_scenario(Scenario(
    name="flapping_wan",
    description="Edge proposer across a flapping WAN link: commits land "
                "in short-lived stability windows",
    config=FlappingConfig,
    presets={"quick": {}, "smoke": {"requests": 25, "cycles": 3}},
    cells=flapping_cells,
    assemble=lambda config, results: FlappingResult(
        config=config, **results[("flap",)])))
