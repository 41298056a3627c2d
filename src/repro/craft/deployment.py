"""Multi-cluster C-Raft deployment builder (the Fig. 5 setup)."""

from __future__ import annotations

from typing import Any, Callable

from repro.consensus.config import Configuration, TransferConfig
from repro.consensus.engine import Role
from repro.consensus.timing import TimingConfig
from repro.craft.batching import BatchPolicy
from repro.craft.server import CRaftServer
from repro.errors import ExperimentError
from repro.harness.builder import System
from repro.net.latency import LatencyModel
from repro.net.loss import LossModel
from repro.net.topology import Topology
from repro.snapshot import CompactionPolicy


class CRaftDeployment(System):
    """A set of C-Raft sites grouped into clusters. Clients take the
    intra-cluster ``local_timing``."""

    servers: dict[str, CRaftServer]
    run_step = 0.05

    def __init__(self, topology: Topology, local_timing: TimingConfig,
                 global_timing: TimingConfig, **substrate: Any) -> None:
        super().__init__(local_timing, **substrate)
        self.topology = topology
        self.global_timing = global_timing

    def run_until_local_leaders(self, timeout: float = 10.0) -> dict[str, str]:
        """Run until every cluster has a leader; returns cluster -> site."""
        def all_elected() -> bool:
            return all(self.local_leader(c) is not None
                       for c in self.topology.clusters)
        if not self.run_until(all_elected, timeout):
            missing = [c for c in self.topology.clusters
                       if self.local_leader(c) is None]
            raise ExperimentError(f"no local leader in {missing} "
                                  f"within {timeout}s")
        return {c: self.local_leader(c) for c in self.topology.clusters}

    def run_until_global_ready(self, timeout: float = 30.0) -> str:
        """Run until every cluster leader sits in the global configuration
        and one of them is the global leader; returns the global leader
        site. (Requiring the global leader to be a *current* local leader
        skips the transient where the retiring bootstrap seed still holds
        global leadership while its demotion to observer is in flight.)"""
        def ready() -> bool:
            global_leader = self.global_leader()
            if global_leader is None:
                return False
            locals_now = set()
            for cluster in self.topology.clusters:
                leader = self.local_leader(cluster)
                if leader is None:
                    return False
                engine = self.servers[leader].global_engine
                if engine is None or not engine.is_member:
                    return False
                locals_now.add(leader)
            return global_leader in locals_now
        if not self.run_until(ready, timeout):
            raise ExperimentError(f"global level not ready within {timeout}s")
        return self.global_leader()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def local_leader(self, cluster: str) -> str | None:
        best_name, best_term = None, -1
        for name in self.topology.nodes_in_cluster(cluster):
            server = self.servers.get(name)
            if server is None or not server.alive:
                continue
            if self.network.is_disconnected(name):
                continue
            engine = server.local_engine
            if engine.role is Role.LEADER and engine.current_term > best_term:
                best_name, best_term = name, engine.current_term
        return best_name

    def global_leader(self) -> str | None:
        best_name, best_term = None, -1
        for name, server in self.servers.items():
            if not server.alive or self.network.is_disconnected(name):
                continue
            engine = server.global_engine
            if engine is None:
                continue
            if engine.role is Role.LEADER and engine.current_term > best_term:
                best_name, best_term = name, engine.current_term
        return best_name

    def total_global_applied(self) -> int:
        """Highest count of inner entries applied from the global log at
        any site (the Fig. 5 throughput numerator)."""
        return max((len(s.frontend.applied_ids)
                    for s in self.servers.values()), default=0)

    def global_observers(self) -> tuple[str, ...]:
        """Standing non-voting observers of the governing global
        configuration, as seen by the global leader (else by any live
        global engine -- the retired seed's own engine included)."""
        leader = self.global_leader()
        if leader is not None:
            return self.servers[leader].global_engine.configuration.observers
        for server in self.servers.values():
            if server.alive and server.global_engine is not None:
                return server.global_engine.configuration.observers
        return ()


def build_craft_deployment(
        topology: Topology, latency: LatencyModel | None,
        loss: LossModel | None = None, seed: int = 0,
        local_timing: TimingConfig | None = None,
        global_timing: TimingConfig | None = None,
        batch_policy: BatchPolicy | None = None,
        trace_enabled: bool = True,
        state_machine_factory: Callable[[], Any] | None = None,
        local_compaction: CompactionPolicy | None = None,
        global_compaction: CompactionPolicy | None = None,
        transfer: TransferConfig | None = None,
        bandwidth: float | None = None) -> CRaftDeployment:
    """Build (without starting) a C-Raft deployment over ``topology``.

    The global log is seeded at the first site of the first cluster.

    ``bandwidth`` (simulated bytes/second) wraps ``latency`` in a
    :class:`BandwidthLatencyModel`; ``transfer`` tunes snapshot shipping
    at both consensus levels (monolithic vs chunked).
    """
    local_timing = local_timing or TimingConfig.intra_cluster()
    global_timing = global_timing or TimingConfig.inter_cluster()
    deployment = CRaftDeployment(
        topology, local_timing, global_timing, seed=seed, latency=latency,
        loss=loss, trace_enabled=trace_enabled, bandwidth=bandwidth)
    global_seed = topology.nodes_in_cluster(topology.clusters[0])[0]
    for cluster in topology.clusters:
        members = topology.nodes_in_cluster(cluster)
        config = Configuration(tuple(members))
        for name in members:
            server = CRaftServer(
                name=name, cluster=cluster, loop=deployment.loop,
                network=deployment.network, fabric=deployment.fabric,
                local_bootstrap=config,
                global_seed=global_seed, local_timing=local_timing,
                global_timing=global_timing, rng=deployment.rng,
                trace=deployment.trace,
                batch_policy=batch_policy,
                state_machine_factory=state_machine_factory,
                local_compaction=local_compaction,
                global_compaction=global_compaction,
                transfer=transfer)
            deployment.add_server(server)
    return deployment
