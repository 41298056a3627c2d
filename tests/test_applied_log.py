"""Apply histories (``smr/applied.py``): one list slot per applied entry,
contiguity refused at append on both server kinds."""

import tracemalloc

import pytest

from repro.consensus.entry import EntryKind, InsertedBy, LogEntry
from repro.craft import build_craft_deployment
from repro.errors import InvariantViolation
from repro.net.latency import RegionLatencyModel
from repro.net.topology import Topology
from repro.raft.server import RaftServer
from repro.snapshot import Snapshot
from tests.conftest import make_cluster


def noop(entry_id):
    # NOOP: the apply touches the history and nothing else.
    return LogEntry(entry_id=entry_id, kind=EntryKind.NOOP, payload=None,
                    origin="n0", term=1, inserted_by=InsertedBy.LEADER)


def craft_server():
    topo = Topology.even_clusters(4, ["us", "eu"])
    latency = RegionLatencyModel(dict(topo.node_regions),
                                 {("us", "eu"): 0.080}, intra_rtt=0.0008)
    deployment = build_craft_deployment(topo, latency, seed=1)
    return deployment.servers[topo.nodes_in_cluster("eu")[0]]


def test_applies_retain_one_list_slot_each():
    """10,000 applies: the history holds each entry in one list slot, not
    an (index, entry) tuple plus a boxed index (~100 B an apply)."""
    server = make_cluster(RaftServer, n_sites=1).servers["n0"]
    entries = [noop(f"e{i}") for i in range(1, 10_001)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index, entry in enumerate(entries, start=1):
            server._on_apply(index, entry)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(server.applied_log) == len(entries)
    assert grown / len(entries) <= 16


def test_a_skipped_index_is_refused_at_apply():
    server = make_cluster(RaftServer, n_sites=1).servers["n0"]
    first, second = noop("a"), noop("b")
    server._on_apply(1, first)
    server._on_apply(2, second)
    with pytest.raises(InvariantViolation,
                       match=r"n0: applied index 4 after 2 \(applies must"):
        server._on_apply(4, noop("d"))
    assert list(server.applied_log) == [(1, first), (2, second)]


def test_a_craft_restore_anchors_the_next_local_apply():
    server = craft_server()
    server._restore_local_snapshot(Snapshot(
        last_included_index=5, last_included_term=1, machine_state=None))
    assert server.applied_log.floor == 5
    with pytest.raises(InvariantViolation,
                       match=r"first applied index 7 .* \(expected 6\)"):
        server._on_local_apply(7, noop("g"))
    sixth = noop("f")
    server._on_local_apply(6, sixth)
    assert list(server.applied_log) == [(6, sixth)]
