"""Two-region failover: the global-membership deadlock, kept fixed.

A 2-cluster C-Raft deployment is the paper's most fragile shape: the
global configuration holds exactly two cluster leaders, so one crash used
to wedge the whole global level (quorum 2-of-2, and the degraded-reconfig
guard rightly refuses to shrink a leader that hears from nobody) -- the
ROADMAP's "global-membership deadlock", pinned for two PRs as a strict
xfail at exactly this topology and seed. The fix keeps the retired
bootstrap seed as a standing non-voting observer (tiebreaker for
elections and CONFIG decisions while the voting set is ``<= 2``) and lets
a caught-up joining leader count toward the exclusion quorum of the
member it replaces (see README "Global membership liveness").

This scenario drives the regression end to end at deployment scale:
bootstrap two regions, crash the east leader, and require that -- without
the dead site ever returning -- the exclusion commits, the successor's
global join completes, and both survivors' batches land in the global
log, all within a bounded number of global heartbeat rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.craft.batching import BatchPolicy
from repro.errors import ExperimentError
from repro.experiments.base import ResultTable, require
from repro.harness.checkers import check_election_safety
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


@dataclass(frozen=True)
class TwoRegionFailoverConfig:
    sites_per_cluster: int = 3
    requests: int = 10            # commits per surviving proposer
    batch_size: int = 5
    wan_rtt: float = 0.080        # east <-> west round trip
    #: The deadlock's pinned reproduction seed (ROADMAP / the formerly
    #: strict-xfail TestTwoMemberGlobalDeadlock).
    seed: int = 18
    #: Liveness bound, in global heartbeat intervals: crash -> successor
    #: member + exclusion committed + all batches applied. Generous
    #: against the observed ~13 rounds, tight against the old deadlock
    #: (which never completed at all).
    round_budget: int = 60
    timeout: float = 300.0


@dataclass
class TwoRegionFailoverResult:
    config: TwoRegionFailoverConfig
    victim: str                   # crashed east leader (was global voter)
    successor: str                # new east leader that joined globally
    observer: str                 # the standing tiebreaker (retired seed)
    join_rounds: float            # crash -> successor in global config
    exclusion_rounds: float       # crash -> victim's exclusion committed
    total_rounds: float           # crash -> every batch globally applied
    global_applied: int           # inner entries applied from global log
    members_after: tuple[str, ...]

    def table(self) -> ResultTable:
        table = ResultTable(
            "Two-region failover -- global membership stays live after "
            "the east leader dies",
            ["victim", "successor", "observer", "join rounds",
             "exclusion rounds", "total rounds", "global applied"])
        table.add_row(self.victim, self.successor, self.observer,
                      round(self.join_rounds, 1),
                      round(self.exclusion_rounds, 1),
                      round(self.total_rounds, 1), self.global_applied)
        table.add_note(
            f"members after failover: {list(self.members_after)}; the "
            f"dead site never returned (round = one global heartbeat "
            f"interval, budget {self.config.round_budget})")
        return table

    def check_shape(self) -> None:
        config = self.config
        require(self.successor != self.victim,
                "a new east leader must take over")
        require(self.victim not in self.members_after,
                "the dead leader's exclusion must commit")
        require(self.successor in self.members_after,
                "the successor's global join must complete")
        require(self.global_applied >= 2 * config.requests,
                f"both survivors' batches must apply globally "
                f"({self.global_applied}/{2 * config.requests})")
        for label, rounds in (("join", self.join_rounds),
                              ("exclusion", self.exclusion_rounds),
                              ("total", self.total_rounds)):
            require(rounds <= config.round_budget,
                    f"{label} took {rounds:.1f} global heartbeat rounds "
                    f"(budget {config.round_budget})")


@drive("two_region_failover")
def drive_two_region_failover(deployment, spec: ScenarioSpec) -> dict:
    """Crash the east leader after global bootstrap; time the recovery
    of global membership and batch flow in global heartbeat rounds."""
    ctx = RunContext(deployment, spec)
    deployment.start_all()
    leaders = deployment.run_until_local_leaders(
        timeout=spec.leader_timeout)
    deployment.run_until_global_ready(
        timeout=spec.params.get("global_ready_timeout", 90.0))
    observers = deployment.global_observers()

    victim = leaders["east"]
    deployment.servers[victim].crash()
    crashed_at = deployment.loop.now()
    round_length = deployment.global_timing.heartbeat_interval

    def rounds_since_crash() -> float:
        return (deployment.loop.now() - crashed_at) / round_length

    if not deployment.run_until(
            lambda: (deployment.local_leader("east") is not None
                     and deployment.local_leader("east") != victim),
            timeout=spec.timeout):
        raise ExperimentError("east never elected a successor")
    successor = deployment.local_leader("east")

    def successor_is_member() -> bool:
        engine = deployment.servers[successor].global_engine
        return engine is not None and engine.is_member

    if not deployment.run_until(successor_is_member, timeout=spec.timeout):
        raise ExperimentError(
            f"successor {successor!r} never joined the global "
            f"configuration (the two-member deadlock is back)")
    join_rounds = rounds_since_crash()

    def victim_excluded() -> bool:
        leader = deployment.global_leader()
        if leader is None:
            return False
        engine = deployment.servers[leader].global_engine
        return victim not in engine.configuration.members

    if not deployment.run_until(victim_excluded, timeout=spec.timeout):
        raise ExperimentError(
            f"crashed leader {victim!r} was never excluded")
    exclusion_rounds = rounds_since_crash()

    # The survivors' batches must reach the global log with the dead
    # site still down: one proposer per cluster, off the victim.
    for cluster in deployment.topology.clusters:
        site = next(n for n in deployment.topology.nodes_in_cluster(cluster)
                    if n != victim and deployment.servers[n].alive)
        client = deployment.add_client(site=site)
        workload = ClosedLoopWorkload(
            client, max_requests=spec.workload.requests,
            command_factory=lambda s, c=cluster: {
                "op": "put", "key": f"{c}.{s}", "value": s})
        workload.start()
        ctx.workloads.append(workload)
    target = 2 * spec.workload.requests
    if not deployment.run_until(
            lambda: (ctx.all_done()
                     and deployment.total_global_applied() >= target),
            timeout=spec.timeout):
        raise ExperimentError(
            f"survivor batches stalled at "
            f"{deployment.total_global_applied()}/{target} global applies")
    total_rounds = rounds_since_crash()
    if deployment.servers[victim].alive:
        raise ExperimentError(f"crashed leader {victim!r} came back")
    check_election_safety(deployment.trace)

    leader = deployment.global_leader()
    members = deployment.servers[leader].global_engine.configuration.members
    return {"victim": victim,
            "successor": successor,
            "observer": observers[0] if observers else "",
            "join_rounds": join_rounds,
            "exclusion_rounds": exclusion_rounds,
            "total_rounds": total_rounds,
            "global_applied": deployment.total_global_applied(),
            "members_after": tuple(members)}


def two_region_failover_spec(config: TwoRegionFailoverConfig
                             ) -> ScenarioSpec:
    return ScenarioSpec(
        name="two_region_failover", engine="craft",
        topology=TopologySpec(n_sites=2 * config.sites_per_cluster,
                              regions=("east", "west")),
        batch=BatchPolicy(batch_size=config.batch_size),
        latency=LatencySpec(kind="rtt_matrix",
                            rtts=(("east", "west", config.wan_rtt),)),
        state_machine=KVStateMachine,
        workload=WorkloadSpec(requests=config.requests),
        drive="two_region_failover", timeout=config.timeout)


def two_region_failover_cells(config: TwoRegionFailoverConfig
                              ) -> list[Cell]:
    return [Cell(key=("failover",),
                 spec=two_region_failover_spec(config),
                 seed=config.seed)]


register_scenario(Scenario(
    name="two_region_failover",
    description="2-cluster deployment survives its east leader's crash: "
                "observer tiebreaker + joining-leader exclusion quorum "
                "keep the global configuration live",
    config=TwoRegionFailoverConfig,
    # requests stays a multiple of batch_size: a partial trailing batch
    # would sit in the batcher waiting for more traffic.
    presets={"quick": {}, "smoke": {"requests": 5}},
    cells=two_region_failover_cells,
    assemble=lambda config, results: TwoRegionFailoverResult(
        config=config, **results[("failover",)])))
