"""Declarative scenario descriptions.

A :class:`ScenarioSpec` is a complete, picklable description of one
simulated run: which engine, how many sites and where they sit, the
protocol timing, the network conditions (latency / loss / bandwidth), a
time- or commit-ordered :class:`EventSchedule` of dynamic-network actions
(the paper's churn, partitions, and ``tc`` swaps), the workload, and how
to drive and measure the run (registered drive/probe names, so specs
cross process boundaries for the parallel sweep runner).

Experiments declare grids of specs (*cells*) instead of hand-scripting
topology construction and fault injection; the
:mod:`repro.scenarios.runner` executes cells serially or across worker
processes with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.consensus.config import TransferConfig
from repro.consensus.timing import TimingConfig
from repro.craft.batching import BatchPolicy
from repro.errors import ExperimentError
from repro.net.latency import (
    BandwidthLatencyModel,
    ConstantLatency,
    LatencyModel,
    RegionLatencyModel,
)
from repro.net.loss import BernoulliLoss, LossModel
from repro.net.topology import Topology
from repro.snapshot import CompactionPolicy


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TopologySpec:
    """Where the sites sit.

    With ``regions`` empty the scenario is a flat single-region cluster
    of ``n_sites`` (the classic-Raft / Fast Raft setups). With regions
    set, sites are placed region by region -- evenly when
    ``region_sizes`` is empty, else ``region_sizes[i]`` sites in
    ``regions[i]`` -- and each region doubles as a C-Raft cluster.
    """

    n_sites: int = 5
    regions: tuple[str, ...] = ()
    region_sizes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ExperimentError(f"need at least one site: {self.n_sites!r}")
        if self.region_sizes:
            if len(self.region_sizes) != len(self.regions):
                raise ExperimentError(
                    "region_sizes must pair up with regions")
            if sum(self.region_sizes) != self.n_sites:
                raise ExperimentError(
                    f"region_sizes {self.region_sizes!r} do not sum to "
                    f"{self.n_sites} sites")

    def build(self) -> Topology | None:
        """The :class:`Topology`, or None for a flat cluster."""
        if not self.regions:
            return None
        if not self.region_sizes:
            return Topology.even_clusters(self.n_sites, list(self.regions))
        topo = Topology()
        index = 0
        for region, size in zip(self.regions, self.region_sizes):
            for _ in range(size):
                topo.add_node(f"n{index}", region=region, cluster=region)
                index += 1
        return topo


# ----------------------------------------------------------------------
# Network models
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LatencySpec:
    """Declarative latency model.

    Kinds: ``default`` (the builder's intra-region default),
    ``constant`` (``delay`` one-way seconds), ``regions`` (the AWS-like
    matrix from :mod:`repro.experiments.regions` over the scenario
    topology), and ``rtt_matrix`` (an explicit ``(region_a, region_b,
    rtt)`` table); both take the intra-region RTT and the jitter of
    :mod:`repro.experiments.regions`. ``bandwidth`` (simulated
    bytes/second) wraps the base model so message delays charge payload
    size.
    """

    kind: str = "default"
    delay: float = 0.0
    rtts: tuple[tuple[str, str, float], ...] = ()
    bandwidth: float | None = None

    @classmethod
    def constant(cls, delay: float, **kwargs) -> "LatencySpec":
        return cls(kind="constant", delay=delay, **kwargs)

    @classmethod
    def aws_regions(cls, **kwargs) -> "LatencySpec":
        return cls(kind="regions", **kwargs)

    def build(self, topology: Topology | None) -> LatencyModel | None:
        """Instantiate the model (None means "builder default")."""
        base: LatencyModel | None
        if self.kind == "default":
            base = None
        elif self.kind == "constant":
            base = ConstantLatency(self.delay)
        elif self.kind in ("regions", "rtt_matrix"):
            if topology is None:
                raise ExperimentError(
                    f"latency kind {self.kind!r} needs a region topology")
            from repro.experiments.regions import (INTRA_REGION_RTT,
                                                   REGION_JITTER,
                                                   latency_model_for)
            if self.kind == "regions":
                base = latency_model_for(topology)
            else:
                base = RegionLatencyModel(
                    dict(topology.node_regions),
                    {(a, b): rtt for a, b, rtt in self.rtts},
                    intra_rtt=INTRA_REGION_RTT, jitter=REGION_JITTER)
        else:
            raise ExperimentError(f"unknown latency kind: {self.kind!r}")
        if self.bandwidth is None:
            return base
        if base is None:
            from repro.harness.builder import DEFAULT_LATENCY
            base = DEFAULT_LATENCY
        return BandwidthLatencyModel(base, self.bandwidth)


@dataclass(frozen=True)
class LossSpec:
    """Bernoulli message loss; rate 0 keeps the RNG-free reliable path."""

    rate: float = 0.0

    def build(self) -> LossModel | None:
        if self.rate == 0.0:
            return None
        return BernoulliLoss(self.rate)


# ----------------------------------------------------------------------
# Event schedule
# ----------------------------------------------------------------------
#: Fault / network actions an Event may name (resolved against
#: FaultInjector methods or the network-model swaps).
EVENT_ACTIONS = frozenset({
    "crash", "recover", "silent_leave", "silent_return", "announced_leave",
    "request_join", "partition", "heal_partition", "set_loss",
    "set_latency",
})


@dataclass(frozen=True)
class Event:
    """One scheduled action against the running system.

    Exactly one trigger must be set: ``at`` (absolute sim seconds) or
    ``after_commits`` (total completed workload commits). ``target`` is
    a site selector -- a literal site name, ``"leader"`` (the initial
    leader), ``"nonleader:<i>"`` (the i-th non-leader by sorted site id,
    excluding the *fire-time* leader), or ``"cluster:<name>"`` (every
    site of that cluster). ``args`` carry action parameters: partition
    groups, a loss rate, a :class:`LatencySpec`, or a join contact --
    ``(contact,)`` or ``(contact, replaces)`` for ``request_join``,
    where ``replaces`` is the seat hint carried on the
    :class:`~repro.consensus.messages.JoinRequest`.
    """

    action: str
    target: str = ""
    at: float | None = None
    after_commits: int | None = None
    args: tuple = ()

    def __post_init__(self) -> None:
        if self.action not in EVENT_ACTIONS:
            raise ExperimentError(f"unknown event action: {self.action!r}")
        if (self.at is None) == (self.after_commits is None):
            raise ExperimentError(
                f"event {self.action!r} needs exactly one trigger "
                f"(at= or after_commits=)")


@dataclass(frozen=True)
class EventSchedule:
    """A schedule of :class:`Event`\\ s, kept in declaration order."""

    events: tuple[Event, ...] = ()

    def timed(self) -> list[Event]:
        """Time-triggered events, ordered by fire time."""
        return sorted((e for e in self.events if e.at is not None),
                      key=lambda e: e.at)

    def commit_triggered(self) -> list[tuple[int, list[Event]]]:
        """Commit-count-triggered events, grouped by threshold."""
        groups: dict[int, list[Event]] = {}
        for event in self.events:
            if event.after_commits is not None:
                groups.setdefault(event.after_commits, []).append(event)
        return sorted(groups.items())

    @classmethod
    def flapping_link(cls, groups: tuple[tuple[str, ...], ...], *,
                      first_outage: float, outage: float, stable: float,
                      cycles: int) -> "EventSchedule":
        """A WAN link that alternates outages with short stability windows.

        From ``first_outage`` the link between ``groups`` is cut for
        ``outage`` seconds, then healed for ``stable`` seconds, repeated
        ``cycles`` times -- the short-lived stability windows of rooted
        dynamic networks (Winkler et al.). Sites inside one group keep
        talking throughout.
        """
        events: list[Event] = []
        t = first_outage
        for _ in range(cycles):
            events.append(Event("partition", at=t, args=(groups,)))
            t += outage
            events.append(Event("heal_partition", at=t))
            t += stable
        return cls(events=tuple(events))


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """Proposers: where they sit, what they submit, and how they pace.

    ``placement`` decides the proposer sites: ``leader``, ``random``
    (one site drawn from the runner's ``PROPOSER_STREAM``),
    ``round_robin`` (``proposers`` clients over the sorted site list),
    or ``sites`` (the explicit ``sites`` tuple, in order). ``command``
    picks the submitted payloads: ``default`` (``k<seq>``), ``keyed``
    (``<prefixes[i]>.<seq>``), or ``payload`` (``value_bytes`` of
    filler per value). Proposers are closed-loop, as the paper's are:
    each submits its next command when the previous one commits.
    """

    placement: str = "leader"
    proposers: int = 1
    sites: tuple[str, ...] = ()
    client_names: tuple[str, ...] = ()
    requests: int | None = None
    proposal_timeout: float | None = None
    command: str = "default"
    prefixes: tuple[str, ...] = ()
    value_bytes: int = 0

    def __post_init__(self) -> None:
        if self.placement not in ("leader", "random", "round_robin",
                                  "sites"):
            raise ExperimentError(
                f"unknown workload placement: {self.placement!r}")
        if self.placement == "sites" and not self.sites:
            raise ExperimentError("placement 'sites' needs a sites tuple")
        if self.command not in ("default", "keyed", "payload"):
            raise ExperimentError(f"unknown command kind: {self.command!r}")

    def command_factory(self, index: int):
        """The per-proposer command factory (None = workload default)."""
        if self.command == "default":
            return None
        if self.command == "keyed":
            prefix = self.prefixes[index]
            return lambda seq, p=prefix: {"op": "put", "key": f"{p}.{seq}",
                                          "value": seq}
        value = "x" * self.value_bytes
        return lambda seq, v=value: {"op": "put", "key": f"k{seq}",
                                     "value": f"{v}{seq}"}


# ----------------------------------------------------------------------
# The scenario itself
# ----------------------------------------------------------------------
ENGINES = ("raft", "fastraft", "craft")


@dataclass(frozen=True)
class SLOSpec:
    """Service-level objectives a scenario asserts over its measured
    serving behaviour; ``None`` fields are unchecked. Latency bounds are
    sim-seconds; throughput is applied entries per sim-second."""

    p50: float | None = None
    p99: float | None = None
    p999: float | None = None
    max_abandoned_fraction: float | None = None
    min_throughput: float | None = None

    def check(self, latency: Any = None, throughput: float | None = None,
              abandoned_fraction: float | None = None) -> None:
        """Raise :class:`ExperimentError` naming every violated bound.

        ``latency`` is a :class:`~repro.metrics.summary.SummaryStats`
        (or anything with median/p99/p999 attributes).
        """
        failures: list[str] = []

        def bound(label: str, measured: float | None,
                  limit: float | None, at_least: bool = False) -> None:
            if limit is None or measured is None:
                return
            bad = measured < limit if at_least else measured > limit
            if bad:
                op = "<" if at_least else ">"
                failures.append(f"{label} {measured:.4g} {op} {limit:.4g}")

        if latency is not None:
            bound("p50", latency.median, self.p50)
            bound("p99", latency.p99, self.p99)
            bound("p999", latency.p999, self.p999)
        bound("throughput", throughput, self.min_throughput, at_least=True)
        bound("abandoned_fraction", abandoned_fraction,
              self.max_abandoned_fraction)
        if failures:
            raise ExperimentError("SLO violated: " + "; ".join(failures))


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully described simulation cell. Picklable end to end."""

    name: str
    engine: str = "fastraft"
    topology: TopologySpec = field(default_factory=TopologySpec)
    timing: TimingConfig | None = None
    global_timing: TimingConfig | None = None
    batch: BatchPolicy | None = None
    #: Serving objectives the drive asserts before reporting (optional).
    slo: SLOSpec | None = None
    compaction: CompactionPolicy | None = None
    global_compaction: CompactionPolicy | None = None
    transfer: TransferConfig | None = None
    latency: LatencySpec = field(default_factory=LatencySpec)
    loss: LossSpec = field(default_factory=LossSpec)
    schedule: EventSchedule = field(default_factory=EventSchedule)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    #: Registered drive executing the run (see repro.scenarios.runner).
    drive: str = "closed_loop"
    #: Registered probe extracting the cell metrics (drive-dependent).
    probe: str = "latency_summary"
    #: State-machine class applied at every site (None = engine default).
    state_machine: Any = None
    trace: bool = True
    safety_checks: bool = True
    #: Sim-seconds to run after the workload before safety checks.
    settle: float = 0.0
    timeout: float = 600.0
    leader_timeout: float = 30.0
    #: Free-form drive/probe parameters (must stay picklable).
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ExperimentError(f"unknown engine: {self.engine!r}")
        if self.engine == "craft" and not self.topology.regions:
            raise ExperimentError("craft scenarios need a region topology")


@dataclass(frozen=True)
class Cell:
    """One sweep cell: a spec, its seed, and a stable key for assembly."""

    key: tuple
    spec: ScenarioSpec
    seed: int
