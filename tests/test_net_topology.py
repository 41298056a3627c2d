"""Tests for topology construction."""

import pytest

from repro.errors import NetworkError
from repro.net.topology import Topology


class TestEvenClusters:
    def test_fig5_layout(self):
        topo = Topology.even_clusters(20, ["r0", "r1", "r2", "r3"])
        assert len(topo.nodes) == 20
        for region in ("r0", "r1", "r2", "r3"):
            assert len(topo.nodes_in_cluster(region)) == 5

    def test_cluster_equals_region(self):
        topo = Topology.even_clusters(4, ["x", "y"])
        for node in topo.nodes:
            assert topo.cluster_of(node) == topo.node_regions[node]

    def test_uneven_split_rejected(self):
        with pytest.raises(NetworkError):
            Topology.even_clusters(10, ["a", "b", "c"])

    def test_empty_regions_rejected(self):
        with pytest.raises(NetworkError):
            Topology.even_clusters(10, [])

    def test_node_naming(self):
        topo = Topology.even_clusters(4, ["a", "b"])
        assert topo.nodes == ["n0", "n1", "n2", "n3"]


class TestMutation:
    def test_add_node(self):
        topo = Topology()
        topo.add_node("n0", region="us", cluster="c1")
        assert topo.cluster_of("n0") == "c1"
        assert topo.node_regions["n0"] == "us"

    def test_cluster_defaults_to_region(self):
        topo = Topology()
        topo.add_node("n0", region="us")
        assert topo.cluster_of("n0") == "us"

    def test_duplicate_placement_rejected(self):
        topo = Topology()
        topo.add_node("n0", region="us")
        with pytest.raises(NetworkError):
            topo.add_node("n0", region="eu")

    def test_unknown_node_rejected(self):
        topo = Topology()
        with pytest.raises(NetworkError):
            topo.cluster_of("ghost")
