"""The client-edge contract, held the same at both server kinds.

A :class:`~repro.smr.frontend.ServingFrontend` sits in front of a flat
Fast Raft site and in front of a C-Raft site (where it answers for the
global level's applied ids). Every test here runs against both: a
5-site Fast Raft cluster and a 2x3 C-Raft deployment, a session client
attached to one site, and an ``Inbox`` actor that stands in for a
client whose replies the test reads.
"""

import pytest

from repro.consensus.messages import ClientReply, ClientRequest
from repro.craft import build_craft_deployment
from repro.craft.batching import BatchPolicy
from repro.fastraft.server import FastRaftServer
from repro.harness.faults import FaultInjector
from repro.net.latency import RegionLatencyModel
from repro.net.topology import Topology
from repro.smr.kv import KVCommand, KVStateMachine
from tests.conftest import Inbox, session_applied, started_cluster


def flat_system():
    cluster = started_cluster(FastRaftServer, seed=1)
    return cluster, "n0", "n2"


def craft_system():
    topo = Topology.even_clusters(6, ["east", "west"])
    latency = RegionLatencyModel(dict(topo.node_regions),
                                 {("east", "west"): 0.080},
                                 intra_rtt=0.0008, jitter=0.1)
    dep = build_craft_deployment(topo, latency, seed=3,
                                 batch_policy=BatchPolicy(batch_size=1),
                                 state_machine_factory=KVStateMachine)
    dep.start_all()
    leaders = dep.run_until_local_leaders()
    dep.run_until_global_ready(timeout=60.0)
    home = topo.nodes_in_cluster(topo.clusters[0])
    peer = next(n for n in home[1:] if n != leaders[topo.clusters[0]])
    return dep, home[0], peer


@pytest.fixture(params=["fastraft", "craft"])
def system(request):
    """(system, the client's site, a non-leader peer in its group)."""
    return flat_system() if request.param == "fastraft" else craft_system()


def retry_of(record, client):
    return ClientRequest(request_id=record.request_id,
                         command=record.command, session_id=client.name,
                         sequence=record.sequence)


def machines(system):
    """Every live site's replicated machine (C-Raft: the global one)."""
    return [s.global_state_machine if hasattr(s, "global_state_machine")
            else s.state_machine
            for s in system.servers.values() if s.alive]


def commit_and_apply(system, site, client, command):
    """Submit through ``client`` and wait until ``site`` has applied."""
    record = client.submit(command)
    frontend = system.servers[site].frontend
    assert system.run_until(
        lambda: record.done
        and frontend.sessions.is_duplicate(client.name, record.sequence),
        timeout=60.0)
    return record


def test_duplicate_reply_fields_and_counter(system):
    system, site, _ = system
    client = system.add_client(site=site, session=True)
    first = commit_and_apply(system, site, client,
                             KVCommand.append("k", "a"))
    second = commit_and_apply(system, site, client,
                              KVCommand.append("k", "b"))
    inbox = Inbox(system)
    server = system.servers[site]
    for record in (second, first):
        system.network.send_local(inbox.name, site, retry_of(record, client))
    system.run_for(1.0)
    newest, older = inbox.replies
    # The newest applied request carries its commit index...
    assert newest == ClientReply(request_id=second.request_id, ok=True,
                                 index=second.commit_index,
                                 info="duplicate")
    assert newest.index > 0
    # ...an older one completes without an index.
    assert older == ClientReply(request_id=first.request_id, ok=True,
                                index=None, info="duplicate")
    assert server.session_duplicates == 2
    assert server.frontend.session_duplicates == 2
    system.run_for(2.0)
    assert all(m.get("k") == "ab" for m in machines(system))


def test_session_tracking_sticky_across_crash_and_recover(system):
    system, site, peer = system
    client = system.add_client(site=site, session=True)
    record = commit_and_apply(system, site, client,
                              KVCommand.append("k", "x"))
    server = system.servers[peer]
    assert system.run_until(
        lambda: session_applied(server, client.name), timeout=60.0)
    inbox = Inbox(system)
    system.network.send_local(inbox.name, peer, retry_of(record, client))
    system.run_for(0.5)
    assert server.session_duplicates == 1
    faults = FaultInjector(system)
    faults.crash(peer)
    system.run_for(0.5)
    faults.recover(peer)
    # The flag and the counter survive; the table comes back by replay.
    assert server.frontend.tracking
    assert server.session_duplicates == 1
    assert system.run_until(
        lambda: session_applied(server, client.name), timeout=60.0)
    system.network.send_local(inbox.name, peer, retry_of(record, client))
    system.run_for(0.5)
    assert server.session_duplicates == 2
    assert [r.info for r in inbox.replies] == ["duplicate", "duplicate"]


def test_restore_keeps_real_indices(system):
    system, site, _ = system
    client = system.add_client(site=site, session=True)
    record = commit_and_apply(system, site, client,
                              KVCommand.append("k", "x"))
    frontend = system.servers[site].frontend
    # At a C-Raft site the applied ids are the global level's.
    assert system.run_until(
        lambda: record.request_id in frontend.applied_ids, timeout=60.0)
    known = frontend.sessions.last_applied(client.name)
    assert known == (1, record.commit_index)
    frontend.restore(tuple(sorted(frontend.applied_ids)))
    assert frontend.sessions.last_applied(client.name) == known
    assert record.request_id in frontend.applied_ids
    # A replica restored from a snapshot alone knows completion only.
    frontend.reset()
    frontend.restore((record.request_id,))
    assert frontend.sessions.last_applied(client.name) == (1, 0)
    inbox = Inbox(system)
    system.network.send_local(inbox.name, site, retry_of(record, client))
    system.run_for(0.5)
    assert inbox.replies == [ClientReply(request_id=record.request_id,
                                         ok=True, index=None,
                                         info="duplicate")]


def test_same_id_applied_once(system):
    system, site, _ = system
    client = system.add_client(site=site, session=True)
    record = client.submit(KVCommand.append("k", "x"))
    # A retry that arrives before the original applies is no duplicate
    # yet: it rides into consensus beside the original.
    system.network.send_local(client.name, site, retry_of(record, client))
    assert system.run_until(lambda: record.done, timeout=60.0)
    assert system.run_until(
        lambda: all(m.get("k") is not None for m in machines(system)),
        timeout=60.0)
    system.run_for(2.0)
    assert all(m.get("k") == "x" for m in machines(system))
    frontend = system.servers[site].frontend
    assert system.servers[site].session_duplicates == 0
    assert record.request_id in frontend.applied_ids
    assert not frontend.apply_once(record.request_id, 99)
    assert frontend.sessions.last_applied(client.name) == (
        1, record.commit_index)


def test_one_reply_per_request_id(system):
    system, site, _ = system
    system.add_client(site=site, session=True)
    inbox = Inbox(system)
    request = ClientRequest(request_id="inbox.1",
                            command=KVCommand.append("k", "x"),
                            session_id="inbox", sequence=1)
    for _ in range(3):
        system.network.send_local(inbox.name, site, request)
    assert system.run_until(lambda: inbox.replies, timeout=60.0)
    system.run_for(2.0)
    assert inbox.replies == [ClientReply(request_id="inbox.1", ok=True,
                                         index=inbox.replies[0].index)]
    assert inbox.replies[0].index > 0
    frontend = system.servers[site].frontend
    assert not frontend.reply_committed("inbox.1", 1)
