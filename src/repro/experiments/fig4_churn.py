"""Figure 4: Fast Raft commit-latency timeline across a silent leave.

Paper setup: five sites, 5 % message loss, member timeout after five
missed heartbeat responses; two sites leave silently mid-run (the vertical
red line in the figure). Before the leave the proposer mostly rides the
fast track (fast quorum 4 of 5); right after it, the fast track is
unavailable and a latency spike above 200 ms appears around the
configuration change; once the leader commits the exclusion entries the
fast quorum shrinks to 3 of 3 and latency returns to the 50-100 ms band.

The silent leaves are declared in the scenario's
:class:`~repro.scenarios.spec.EventSchedule` (commit-count triggered),
not hand-scripted -- the same vocabulary every other churn scenario uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.consensus.timing import TimingConfig
from repro.experiments.base import ResultTable, require
from repro.metrics.summary import summarize
from repro.scenarios.registry import Scenario, register_scenario
from repro.scenarios.runner import RunContext, probe
from repro.scenarios.spec import (
    Cell,
    Event,
    EventSchedule,
    LossSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)


@dataclass(frozen=True)
class Fig4Config:
    n_sites: int = 5
    loss_rate: float = 0.05
    leavers: int = 2
    warmup_commits: int = 40      # commits before the leave
    total_commits: int = 160      # commits overall
    settle_time: float = 3.0      # post-leave horizon treated as recovery
    seed: int = 7
    timing: TimingConfig = field(default_factory=TimingConfig.intra_cluster)
    timeout: float = 900.0


@dataclass
class Fig4Result:
    config: Fig4Config
    leave_time: float
    #: (submit time relative to the leave, latency) per committed proposal.
    timeline: list[tuple[float, float]]
    final_members: tuple[str, ...]
    final_fast_quorum: int

    def phase_latencies(self) -> tuple[list[float], list[float], list[float]]:
        """(pre-leave, transition, recovered) latency groups."""
        pre, transition, recovered = [], [], []
        for offset, latency in self.timeline:
            if offset < 0:
                pre.append(latency)
            elif offset < self.config.settle_time:
                transition.append(latency)
            else:
                recovered.append(latency)
        return pre, transition, recovered

    def table(self) -> ResultTable:
        pre, transition, recovered = self.phase_latencies()
        table = ResultTable(
            "Fig. 4 -- Fast Raft latency around two silent leaves (ms)",
            ["phase", "commits", "mean", "p95", "max"])
        for name, values in (("before leave", pre),
                             ("transition", transition),
                             ("recovered", recovered)):
            if values:
                stats = summarize(values)
                table.add_row(name, stats.count, stats.mean * 1000,
                              stats.p95 * 1000, stats.maximum * 1000)
            else:
                table.add_row(name, 0, float("nan"), float("nan"),
                              float("nan"))
        table.add_note(f"members after recovery: "
                       f"{list(self.final_members)}, fast quorum "
                       f"{self.final_fast_quorum}")
        table.add_note(f"silent leave at t={self.leave_time:.2f}s, loss "
                       f"{self.config.loss_rate:.0%}, member timeout "
                       f"{self.config.timing.member_timeout_beats} beats")
        return table

    def check_shape(self) -> None:
        pre, transition, recovered = self.phase_latencies()
        require(bool(pre) and bool(recovered),
                "need commits on both sides of the leave")
        pre_mean = sum(pre) / len(pre)
        recovered_mean = sum(recovered) / len(recovered)
        peak = max(transition + recovered) if (transition or recovered) else 0
        require(peak > 2 * pre_mean,
                f"expected a churn spike >2x the steady state "
                f"(pre {pre_mean * 1000:.0f} ms, peak {peak * 1000:.0f} ms)")
        require(recovered_mean < 2.0 * pre_mean,
                f"latency should return near the pre-leave band "
                f"(pre {pre_mean * 1000:.0f} ms, recovered "
                f"{recovered_mean * 1000:.0f} ms)")
        expected_size = self.config.n_sites - self.config.leavers
        require(len(self.final_members) == expected_size,
                f"configuration should shrink to {expected_size} members, "
                f"got {list(self.final_members)}")


@probe("fig4_timeline")
def probe_fig4_timeline(ctx: RunContext) -> dict:
    """Latency timeline relative to the (first) scheduled leave, plus the
    recovered configuration at the initial leader.

    The proposer sits on the leader's site so that proposer-side retries
    never mask the protocol's own latency (as in the paper's timeline).
    """
    leave_time = ctx.fired[0][0]
    engine = ctx.system.servers[ctx.initial_leader].engine
    timeline = [(record.submitted_at - leave_time, record.latency)
                for record in ctx.workloads[0].records if record.done]
    return {"leave_time": leave_time,
            "timeline": timeline,
            "final_members": engine.configuration.members,
            "final_fast_quorum": engine.configuration.fast_quorum}


def fig4_spec(config: Fig4Config) -> ScenarioSpec:
    schedule = EventSchedule(tuple(
        Event("silent_leave", target=f"nonleader:{i}",
              after_commits=config.warmup_commits)
        for i in range(config.leavers)))
    return ScenarioSpec(
        name="fig4.silent_leave", engine="fastraft",
        topology=TopologySpec(n_sites=config.n_sites),
        timing=config.timing, loss=LossSpec(config.loss_rate),
        schedule=schedule,
        workload=WorkloadSpec(placement="leader",
                              requests=config.total_commits),
        probe="fig4_timeline", settle=1.0, timeout=config.timeout)


def fig4_cells(config: Fig4Config) -> list[Cell]:
    return [Cell(key=("timeline",), spec=fig4_spec(config),
                 seed=config.seed)]


register_scenario(Scenario(
    name="fig4",
    description="Fast Raft latency timeline across two silent leaves "
                "(Fig. 4)",
    config=Fig4Config,
    presets={"quick": {"warmup_commits": 15, "total_commits": 80},
             "smoke": {"warmup_commits": 10, "total_commits": 60}},
    cells=fig4_cells,
    assemble=lambda config, results: Fig4Result(
        config=config, **results[("timeline",)])))
