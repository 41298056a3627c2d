"""System construction and run-control helpers.

:class:`System` is what every deployment shares; :class:`Cluster` (one
flat group) and :class:`~repro.craft.deployment.CRaftDeployment` build
on it (``craft`` imports this module, never the reverse).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.consensus.config import Configuration, TransferConfig
from repro.consensus.engine import Role
from repro.consensus.server import ConsensusServer
from repro.consensus.timing import TimingConfig
from repro.errors import ExperimentError
from repro.net.latency import (BandwidthLatencyModel, LatencyModel,
                               UniformLatency)
from repro.net.loss import LossModel
from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim.loop import SimLoop
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.smr.client import Client
from repro.snapshot import CompactionPolicy
from repro.storage.stable import StorageFabric

if TYPE_CHECKING:
    from repro.craft.batching import BatchPolicy

#: Default intra-region one-way latency: the paper reports sub-millisecond
#: round trips inside one AWS region.
DEFAULT_LATENCY = UniformLatency(0.0002, 0.0005)


class System:
    """Servers and clients on one substrate, which the constructor
    builds: loop, seeded RNG registry, trace, network (``latency``
    defaults to :data:`DEFAULT_LATENCY`; ``bandwidth`` wraps it, see
    :func:`build_cluster`) and storage fabric. Clients default to
    ``client_timing.proposal_timeout``."""

    #: ``run_until``'s default step (sim-seconds). It decides when a
    #: drive notices its predicate, so each kind keeps its own.
    run_step = 0.01

    def __init__(self, client_timing: TimingConfig, seed: int,
                 latency: LatencyModel | None, loss: LossModel | None,
                 trace_enabled: bool, bandwidth: float | None = None) -> None:
        if latency is None:
            latency = DEFAULT_LATENCY
        if bandwidth is not None:
            latency = BandwidthLatencyModel(latency, bandwidth)
        self.loop = SimLoop()
        self.rng = RngRegistry(seed)
        self.trace = TraceRecorder(enabled=trace_enabled)
        self.network = Network(self.loop, self.rng, latency, loss,
                               self.trace)
        self.fabric = StorageFabric()
        self.client_timing = client_timing
        self.servers: dict[str, Any] = {}
        self.clients: dict[str, Client] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_server(self, server: Any) -> None:
        self.servers[server.name] = server
        self.network.register(server)

    def add_client(self, site: str, name: str | None = None,
                   proposal_timeout: float | None = None,
                   max_attempts: int | None = None,
                   session: bool = False) -> Client:
        """Attach a client to ``site`` (co-located, reliable link).

        ``session=True`` makes it a session client (stamped sequence
        numbers) and switches every server to session dedup -- the
        tracking flag is system-wide because any site may later lead,
        and (C-Raft) batches carry applied ids to every cluster, so any
        site must recognize the session's retries.
        """
        if site not in self.servers:
            raise ExperimentError(f"unknown site: {site!r}")
        if name is None:
            name = f"client.{site}.{len(self.clients)}"
        timeout = (proposal_timeout if proposal_timeout is not None
                   else self.client_timing.proposal_timeout)
        client = Client(name, self.loop, self.network, site,
                        proposal_timeout=timeout, max_attempts=max_attempts,
                        session=session)
        if session:
            for server in self.servers.values():
                server.frontend.track_sessions()
        self.clients[name] = client
        self.network.register(client)
        return client

    def start_all(self) -> None:
        for server in self.servers.values():
            server.start()

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def run_for(self, duration: float) -> None:
        self.loop.run_for(duration)

    def run_until(self, predicate: Callable[[], bool], timeout: float,
                  step: float | None = None) -> bool:
        """Advance in ``step`` increments (default :attr:`run_step`)
        until ``predicate()`` or timeout.

        Returns True if the predicate became true.
        """
        if step is None:
            step = self.run_step
        deadline = self.loop.now() + timeout
        while self.loop.now() < deadline:
            if predicate():
                return True
            self.loop.run_for(step)
        return predicate()


class Cluster(System):
    """One flat consensus group: its servers share ``timing``."""

    servers: dict[str, ConsensusServer]

    def __init__(self, timing: TimingConfig, **substrate: Any) -> None:
        super().__init__(timing, **substrate)
        self.timing = timing

    def run_until_leader(self, timeout: float = 5.0) -> str:
        """Run until some live server is leader; returns its name."""
        if not self.run_until(lambda: self.leader() is not None, timeout):
            raise ExperimentError(f"no leader elected within {timeout}s")
        return self.leader()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def leader(self) -> str | None:
        """Name of the live leader with the highest term, if any."""
        best_name, best_term = None, -1
        for name, server in self.servers.items():
            if not server.alive or self.network.is_disconnected(name):
                continue
            engine = server.engine
            if engine.role is Role.LEADER and engine.current_term > best_term:
                best_name, best_term = name, engine.current_term
        return best_name

    def commit_indices(self) -> dict[str, int]:
        return {name: server.engine.commit_index
                for name, server in self.servers.items()}

    # ------------------------------------------------------------------
    # Convenience workload
    # ------------------------------------------------------------------
    def propose_and_wait(self, client: Client, command: Any,
                         timeout: float = 10.0):
        """Submit one command and run the loop until it commits."""
        record = client.submit(command)
        if not self.run_until(lambda: record.done, timeout):
            raise ExperimentError(
                f"command {command!r} did not commit within {timeout}s")
        return record


def build_cluster(server_cls: type[ConsensusServer], n_sites: int = 5,
                  seed: int = 0, timing: TimingConfig | None = None,
                  latency: LatencyModel | None = None,
                  loss: LossModel | None = None,
                  trace_enabled: bool = True,
                  state_machine_factory: Callable[[], Any] | None = None,
                  compaction: CompactionPolicy | None = None,
                  transfer: TransferConfig | None = None,
                  bandwidth: float | None = None,
                  n_observers: int = 0,
                  propose_batch: BatchPolicy | None = None,
                  topology: Topology | None = None) -> Cluster:
    """Standard single-group cluster: ``n_sites`` voting members
    ``n0``, ``n1``, ...

    With ``topology`` the voting members are instead every node of it,
    created in ``topology.nodes`` order: the geo-distributed classic-Raft
    baseline of Fig. 5, one voting configuration whose members sit in
    different regions (the latency model decides what that costs).

    ``n_observers`` (flat clusters only) adds that many standing
    non-voting observers (named after the voters: ``n<n_sites>`` onward)
    to the bootstrap configuration -- replicas that receive everything
    but only tip quorums as tiebreakers for CONFIG entries and elections
    while the voting set is degenerate (see ``Configuration.observers``).

    ``bandwidth`` (simulated bytes/second) wraps the latency model in a
    :class:`BandwidthLatencyModel` so message delays charge payload size;
    ``transfer`` tunes how snapshots ship (monolithic vs chunked).

    The result is not started; call :meth:`Cluster.start_all` (tests often
    install faults first).
    """
    if n_sites < 1:
        raise ExperimentError(f"need at least one site: {n_sites!r}")
    if n_observers < 0:
        raise ExperimentError(f"n_observers must be >= 0: {n_observers!r}")
    if topology is None:
        names = [f"n{i}" for i in range(n_sites)]
    elif n_observers:
        raise ExperimentError("observers need a flat cluster (no topology)")
    else:
        names = list(topology.nodes)
    timing = timing if timing is not None else TimingConfig()
    cluster = Cluster(timing, seed=seed, latency=latency, loss=loss,
                      trace_enabled=trace_enabled, bandwidth=bandwidth)
    watchers = [f"n{n_sites + i}" for i in range(n_observers)]
    config = Configuration(tuple(names), tuple(watchers))
    for name in names + watchers:
        server = server_cls(
            name=name, loop=cluster.loop, network=cluster.network,
            store=cluster.fabric.store_for(name), bootstrap_config=config,
            timing=timing, rng=cluster.rng, trace=cluster.trace,
            state_machine_factory=state_machine_factory,
            compaction=compaction, transfer=transfer,
            propose_batch=propose_batch)
        cluster.add_server(server)
    return cluster


def server_class_for(engine: str) -> type[ConsensusServer]:
    """Map a scenario engine name to its flat server class."""
    from repro.fastraft.server import FastRaftServer
    from repro.raft.server import RaftServer
    if engine == "raft":
        return RaftServer
    if engine == "fastraft":
        return FastRaftServer
    raise ExperimentError(f"not a flat engine: {engine!r}")


def build_from_spec(spec, seed: int):
    """Construct the system a :class:`~repro.scenarios.spec.ScenarioSpec`
    describes: a :class:`Cluster` for the flat engines, a
    :class:`~repro.craft.deployment.CRaftDeployment` for ``craft``.

    This is the single construction path the scenario runner uses; the
    spec decides topology, engine, timing, network models, snapshotting,
    and transfer tuning.
    """
    topology = spec.topology.build()
    latency = spec.latency.build(topology)
    loss = spec.loss.build()
    if spec.engine == "craft":
        from repro.craft.deployment import build_craft_deployment
        return build_craft_deployment(
            topology, latency, loss=loss, seed=seed, local_timing=spec.timing,
            global_timing=spec.global_timing, batch_policy=spec.batch,
            trace_enabled=spec.trace,
            state_machine_factory=spec.state_machine,
            local_compaction=spec.compaction,
            global_compaction=spec.global_compaction,
            transfer=spec.transfer)
    return build_cluster(
        server_class_for(spec.engine), n_sites=spec.topology.n_sites,
        seed=seed, timing=spec.timing, latency=latency, loss=loss,
        trace_enabled=spec.trace, state_machine_factory=spec.state_machine,
        compaction=spec.compaction, transfer=spec.transfer,
        topology=topology)
