"""Heavy-traffic serving scenario: the full serving layer at scale.

The capstone of the serving-layer work: a 6x5 C-Raft mesh (the
``large_mesh`` shape, flapping WAN uplink included) serving an open-loop
fleet of *session* clients -- tens of thousands of distinct sessions in
full mode -- with adaptive proposal batching at the global level and
percentile SLO assertions over the measured behaviour.

What it exercises that no earlier scenario does:

- **Sessions at scale**: every request carries ``(session_id,
  sequence)``; servers answer retried duplicates from the session table
  without re-entering consensus. The flapping uplink makes retries (and
  therefore duplicate suppression) a steady-state occurrence, not an
  edge case.
- **Adaptive batching**: the global batch policy starts small and lets
  the observed global-commit-latency EWMA steer ``batch_size`` /
  ``max_outstanding`` between the configured floors and ceilings.
- **Percentile SLOs**: client-observed commit latencies stream into a
  bounded :class:`~repro.metrics.summary.StreamingReservoir`; the run
  fails (raises) if p50/p99/p999, throughput, or the abandoned-request
  fraction violate the declared :class:`~repro.scenarios.spec.SLOSpec`.

The fleet is a single global Poisson arrival process over the session
population: each arrival wakes one idle session, which submits its next
command and returns to the idle pool on completion -- sessions never
pipeline, preserving the retry-until-committed ordering the dedup table
relies on. This keeps the simulated load open-loop (arrival rate does
not slow down when the system does) at a per-event cost independent of
the fleet size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consensus.timing import TimingConfig
from repro.craft.batching import BatchPolicy
from repro.errors import ExperimentError
from repro.experiments.base import ResultTable, cell_seed, require
from repro.experiments.regions import regions_for
from repro.metrics.summary import StreamingReservoir, SummaryStats
from repro.net.topology import Topology
from repro.scenarios.registry import Scenario, register_scenario
from repro.scenarios.runner import RunContext, arm_timed_events, drive
from repro.scenarios.spec import (
    Cell,
    EventSchedule,
    LatencySpec,
    ScenarioSpec,
    SLOSpec,
    TopologySpec,
)
from repro.smr.kv import KVCommand, KVStateMachine


@dataclass(frozen=True)
class HeavyTrafficConfig:
    clusters: int = 6
    sites_per_cluster: int = 5
    #: Distinct client sessions in the fleet.
    sessions: int = 20_000
    #: Aggregate arrival rate across the fleet (requests / sim second).
    arrival_rate: float = 400.0
    #: Retries before a session abandons a request (counts against the
    #: abandoned-fraction SLO).
    max_attempts: int = 8
    duration: float = 60.0        # measurement window (sim seconds)
    warmup: float = 12.0          # after global ready, before measuring
    drain: float = 6.0            # after the window, for in-flight tails
    #: Flapping cycle for the cut region's WAN uplink (see large_mesh).
    first_outage: float = 30.0
    outage: float = 2.0
    stable: float = 4.0
    cycles: int = 10
    #: Latency reservoir size (bounded memory at any fleet scale).
    reservoir: int = 4096
    seed: int = 11

    def __post_init__(self) -> None:
        if self.clusters < 6 or self.sites_per_cluster < 5:
            raise ExperimentError(
                "heavy_traffic runs the large-mesh shape: >= 6 clusters "
                f"x 5 sites (got {self.clusters} x "
                f"{self.sites_per_cluster})")
        if self.sessions < 1 or self.arrival_rate <= 0:
            raise ExperimentError("need sessions and a positive rate")

    @property
    def total_sites(self) -> int:
        return self.clusters * self.sites_per_cluster


@dataclass
class HeavyTrafficResult:
    config: HeavyTrafficConfig
    throughput: float             # global applies/s over the window
    latency: SummaryStats         # client-observed commit latency
    abandoned_fraction: float
    duplicates_suppressed: int
    #: Flap-schedule events (partition / heal) that fired during the run.
    fired: int

    def table(self) -> ResultTable:
        config = self.config
        table = ResultTable(
            "Heavy traffic -- session fleet over a 6x5 C-Raft mesh "
            "(SLO-checked)",
            ["sessions", "rate", "throughput", "p50_ms", "p99_ms",
             "p999_ms", "abandoned"])
        table.add_row(config.sessions, config.arrival_rate,
                      round(self.throughput, 2),
                      round(self.latency.median * 1e3, 1),
                      round(self.latency.p99 * 1e3, 1),
                      round(self.latency.p999 * 1e3, 1),
                      round(self.abandoned_fraction, 4))
        table.add_note(
            f"{config.duration:.0f}s window, adaptive batching, "
            f"{self.fired} WAN flap events fired, "
            f"{self.duplicates_suppressed} duplicate retries suppressed "
            f"without consensus")
        return table

    def check_shape(self) -> None:
        require(self.throughput > 0.0,
                "the mesh must keep applying globally under load "
                f"(got {self.throughput:.2f}/s)")
        require(self.latency.count > 0, "no requests completed")


def heavy_traffic_spec(config: HeavyTrafficConfig) -> ScenarioSpec:
    regions = regions_for(config.clusters)
    topology = Topology.even_clusters(config.total_sites, regions)
    cut = regions[-1]
    cut_sites = tuple(topology.nodes_in_cluster(cut))
    rest = tuple(n for n in topology.nodes if n not in cut_sites)
    return ScenarioSpec(
        name="heavy_traffic", engine="craft",
        topology=TopologySpec(n_sites=config.total_sites,
                              regions=tuple(regions)),
        timing=TimingConfig.intra_cluster(),
        global_timing=TimingConfig.inter_cluster(),
        # Latency-adaptive: the EWMA of observed global-commit latency
        # steers batch_size/max_outstanding within the fixed bounds of
        # repro.craft.batching (4..64 entries, <= 8 in flight, 2 s target).
        batch=BatchPolicy(batch_size=8, max_outstanding=2, adaptive=True),
        latency=LatencySpec.aws_regions(),
        schedule=EventSchedule.flapping_link(
            (rest, cut_sites), first_outage=config.first_outage,
            outage=config.outage, stable=config.stable,
            cycles=config.cycles),
        trace=False, state_machine=KVStateMachine,
        drive="serving_window",
        slo=SLOSpec(p50=1.0, p99=4.0, p999=8.0,
                    min_throughput=config.arrival_rate * 0.25,
                    max_abandoned_fraction=0.05),
        params={"sessions": config.sessions,
                "arrival_rate": config.arrival_rate,
                "max_attempts": config.max_attempts,
                "warmup": config.warmup, "duration": config.duration,
                "drain": config.drain, "reservoir": config.reservoir,
                "global_ready_timeout": 120.0})


@drive("serving_window")
def drive_serving_window(system, spec: ScenarioSpec) -> dict:
    """Open-loop session fleet against a C-Raft deployment.

    Returns ``{"throughput", "latency", "abandoned_fraction",
    "duplicates_suppressed", "fired"}`` (``fired`` counts the schedule
    events that took effect); raises ExperimentError if ``spec.slo`` is
    violated. An arrival that finds every session busy is dropped.
    """
    params = spec.params
    n_sessions = params["sessions"]
    rate = params["arrival_rate"]
    loop = system.loop
    system.start_all()
    system.run_until_local_leaders(timeout=spec.leader_timeout)
    system.run_until_global_ready(
        timeout=params.get("global_ready_timeout", 90.0))

    sites = list(system.servers)
    clients = [system.add_client(site=sites[i % len(sites)],
                                 name=f"s{i}",
                                 max_attempts=params["max_attempts"],
                                 session=True)
               for i in range(n_sessions)]
    reservoir = StreamingReservoir(params["reservoir"],
                                   system.rng.stream("serving.reservoir"))
    arrivals = system.rng.stream("serving.arrivals")
    #: Sessions with no outstanding request (index into ``clients``).
    idle = list(range(n_sessions))
    state = {"measuring": False, "submitting": True,
             "submitted": 0, "counter": 0}

    def on_done(index, record):
        idle.append(index)
        if record.done and state["measuring"]:
            reservoir.add(record.latency)

    def submit_one():
        slot = arrivals.randrange(len(idle))
        idle[slot], idle[-1] = idle[-1], idle[slot]
        index = idle.pop()
        client = clients[index]
        state["submitted"] += 1
        state["counter"] += 1
        command = KVCommand.append(f"k{state['counter'] % 512}",
                                   client.name)
        client.submit(command,
                      on_done=lambda record: on_done(index, record))

    def on_arrival():
        if not state["submitting"]:
            return
        if idle:
            submit_one()
        loop.schedule(arrivals.expovariate(rate), on_arrival)

    loop.schedule(arrivals.expovariate(rate), on_arrival)
    ctx = RunContext(system, spec)
    arm_timed_events(ctx)
    system.run_for(params["warmup"])
    state["measuring"] = True
    window_start_applied = system.total_global_applied()
    system.run_for(params["duration"])
    throughput = ((system.total_global_applied() - window_start_applied)
                  / params["duration"])
    state["measuring"] = False
    state["submitting"] = False
    system.run_for(params["drain"])

    abandoned = sum(len(c.abandoned) for c in clients)
    fraction = abandoned / max(1, state["submitted"])
    duplicates = sum(server.session_duplicates
                     for server in system.servers.values())
    latency = reservoir.summary()
    if spec.slo is not None:
        spec.slo.check(latency=latency, throughput=throughput,
                       abandoned_fraction=fraction)
    return {"throughput": throughput, "latency": latency,
            "abandoned_fraction": fraction,
            "duplicates_suppressed": duplicates,
            "fired": len(ctx.fired)}


def heavy_traffic_cells(config: HeavyTrafficConfig) -> list[Cell]:
    return [Cell(key=("heavy_traffic",), spec=heavy_traffic_spec(config),
                 seed=cell_seed(config.seed, "heavy_traffic"))]


register_scenario(Scenario(
    name="heavy_traffic",
    description="session fleet over the 6x5 mesh: adaptive batching, "
                "exactly-once dedup, and percentile SLO assertions "
                "under a flapping WAN uplink",
    config=HeavyTrafficConfig,
    # Smoke keeps the full 6x5 mesh (shrinking it would defeat the
    # smoke) with a smaller fleet and window.
    presets={"quick": {"sessions": 2_000, "arrival_rate": 150.0,
                       "duration": 24.0, "warmup": 10.0, "cycles": 6},
             "smoke": {"sessions": 300, "arrival_rate": 60.0,
                       "duration": 10.0, "warmup": 6.0, "drain": 4.0,
                       "first_outage": 24.0, "outage": 1.5, "stable": 3.0,
                       "cycles": 3}},
    cells=heavy_traffic_cells,
    assemble=lambda config, results: HeavyTrafficResult(
        config=config, **results[("heavy_traffic",)])))
