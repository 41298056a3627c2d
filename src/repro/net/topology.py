"""Topology description: regions, clusters, and node placement.

A :class:`Topology` assigns node names to regions (for the latency model)
and to clusters (for C-Raft). The paper's Fig. 5 setup -- 20 sites split
evenly over *c* clusters, one cluster per AWS region -- is produced by
:meth:`Topology.even_clusters`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NetworkError


@dataclass
class Topology:
    """Mapping from node names to regions and clusters."""

    node_regions: dict[str, str] = field(default_factory=dict)
    node_clusters: dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def even_clusters(cls, total_sites: int,
                      regions: list[str]) -> "Topology":
        """Split ``total_sites`` (``n0``, ``n1``, ...) evenly across
        ``regions``, one cluster per region (the Fig. 5 layout). Site
        count must divide evenly so every cluster has the same quorum
        structure, as in the paper."""
        if not regions:
            raise NetworkError("need at least one region")
        if total_sites % len(regions) != 0:
            raise NetworkError(
                f"{total_sites} sites do not split evenly over "
                f"{len(regions)} regions")
        per_region = total_sites // len(regions)
        topo = cls()
        index = 0
        for region in regions:
            for _ in range(per_region):
                topo.add_node(f"n{index}", region=region, cluster=region)
                index += 1
        return topo

    def add_node(self, name: str, region: str, cluster: str | None = None
                 ) -> None:
        if name in self.node_regions:
            raise NetworkError(f"node already placed: {name!r}")
        self.node_regions[name] = region
        self.node_clusters[name] = cluster if cluster is not None else region

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[str]:
        return sorted(self.node_regions)

    @property
    def clusters(self) -> list[str]:
        return sorted(set(self.node_clusters.values()))

    def nodes_in_cluster(self, cluster: str) -> list[str]:
        return sorted(n for n, c in self.node_clusters.items()
                      if c == cluster)

    def nodes_in_region(self, region: str) -> list[str]:
        return sorted(n for n, r in self.node_regions.items()
                      if r == region)

    def cluster_of(self, node: str) -> str:
        try:
            return self.node_clusters[node]
        except KeyError:
            raise NetworkError(f"unknown node: {node!r}") from None
