#!/usr/bin/env python
"""Geo-replication with C-Raft: four regions, hierarchical consensus.

Builds the paper's Section V system: sites grouped into clusters (one per
region), Fast Raft inside each cluster, cluster leaders running Fast Raft
among themselves, and batches of locally committed entries published to
the globally ordered log. Clients see local commit latency; the global
log converges everywhere.

Run:  python examples/geo_replication.py
"""

from repro.craft import build_craft_deployment
from repro.craft.batching import BatchPolicy
from repro.experiments.regions import latency_model_for, regions_for
from repro.harness.workload import ClosedLoopWorkload
from repro.net.topology import Topology
from repro.smr.kv import KVStateMachine


def main() -> None:
    regions = regions_for(4)
    topology = Topology.even_clusters(12, regions)  # 3 sites per region
    deployment = build_craft_deployment(
        topology, latency_model_for(topology), seed=5,
        batch_policy=BatchPolicy(batch_size=5, max_age=2.0),
        state_machine_factory=KVStateMachine)
    deployment.start_all()

    leaders = deployment.run_until_local_leaders()
    print("cluster leaders:")
    for cluster, leader in sorted(leaders.items()):
        print(f"  {cluster}: {leader}")
    global_leader = deployment.run_until_global_ready(timeout=60.0)
    print(f"global leader: {global_leader} "
          f"(cluster {topology.cluster_of(global_leader)})")

    # One closed-loop client per region writes region-tagged keys.
    workloads = {}
    for region in regions:
        site = topology.nodes_in_cluster(region)[0]
        client = deployment.add_client(site=site)
        workload = ClosedLoopWorkload(
            client, max_requests=15,
            command_factory=lambda s, r=region: {
                "op": "put", "key": f"{r}/item{s}", "value": s})
        workload.start()
        workloads[region] = workload

    deployment.run_until(
        lambda: all(w.done for w in workloads.values()), timeout=120.0)
    print("\nlocal commit latency per region (client-observed):")
    for region, workload in sorted(workloads.items()):
        latencies = workload.latencies()
        mean = sum(latencies) / len(latencies)
        print(f"  {region}: {mean * 1000:.1f} ms mean over "
              f"{len(latencies)} writes")

    # Wait until every site has applied all 60 entries from the global log.
    deployment.run_until(
        lambda: min(len(s.frontend.applied_ids)
                    for s in deployment.servers.values()) >= 60,
        timeout=300.0)
    far_apart = [topology.nodes_in_cluster(regions[0])[0],
                 topology.nodes_in_cluster(regions[-1])[0]]
    snap_a = deployment.servers[far_apart[0]].global_state_machine.snapshot()
    snap_b = deployment.servers[far_apart[1]].global_state_machine.snapshot()
    assert snap_a == snap_b, "global state diverged!"
    print(f"\nglobal KV store converged on {len(snap_a)} keys at "
          f"{far_apart[0]} and {far_apart[1]} "
          f"(regions {regions[0]} and {regions[-1]})")
    sample = dict(sorted(snap_a.items())[:4])
    print(f"sample: {sample}")


if __name__ == "__main__":
    main()
