"""AWS-like region round-trip times.

The paper reports 10--300 ms RTT between AWS regions and under 1 ms
within a region (Section VI). The matrix below follows publicly known
inter-region latencies for the region mix the paper names (North America,
South America, Europe, Asia); absolute values only need to land in the
paper's envelope, since we compare protocol *shapes*, not testbed
constants.
"""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.net.latency import RegionLatencyModel
from repro.net.topology import Topology

#: Region pool in the order clusters are allocated (Fig. 5 uses up to 10).
REGIONS: list[str] = [
    "us-east", "us-west", "eu-west", "eu-central", "ap-northeast",
    "ap-southeast", "sa-east", "ca-central", "ap-south", "eu-north",
]

#: Round-trip seconds between region pairs (unordered).
RTT_MATRIX: dict[tuple[str, str], float] = {
    ("us-east", "us-west"): 0.062,
    ("us-east", "eu-west"): 0.076,
    ("us-east", "eu-central"): 0.089,
    ("us-east", "ap-northeast"): 0.156,
    ("us-east", "ap-southeast"): 0.214,
    ("us-east", "sa-east"): 0.114,
    ("us-east", "ca-central"): 0.014,
    ("us-east", "ap-south"): 0.192,
    ("us-east", "eu-north"): 0.104,
    ("us-west", "eu-west"): 0.135,
    ("us-west", "eu-central"): 0.148,
    ("us-west", "ap-northeast"): 0.107,
    ("us-west", "ap-southeast"): 0.168,
    ("us-west", "sa-east"): 0.174,
    ("us-west", "ca-central"): 0.060,
    ("us-west", "ap-south"): 0.222,
    ("us-west", "eu-north"): 0.162,
    ("eu-west", "eu-central"): 0.025,
    ("eu-west", "ap-northeast"): 0.210,
    ("eu-west", "ap-southeast"): 0.172,
    ("eu-west", "sa-east"): 0.178,
    ("eu-west", "ca-central"): 0.070,
    ("eu-west", "ap-south"): 0.122,
    ("eu-west", "eu-north"): 0.031,
    ("eu-central", "ap-northeast"): 0.226,
    ("eu-central", "ap-southeast"): 0.158,
    ("eu-central", "sa-east"): 0.196,
    ("eu-central", "ca-central"): 0.084,
    ("eu-central", "ap-south"): 0.110,
    ("eu-central", "eu-north"): 0.022,
    ("ap-northeast", "ap-southeast"): 0.068,
    ("ap-northeast", "sa-east"): 0.256,
    ("ap-northeast", "ca-central"): 0.144,
    ("ap-northeast", "ap-south"): 0.121,
    ("ap-northeast", "eu-north"): 0.242,
    ("ap-southeast", "sa-east"): 0.300,
    ("ap-southeast", "ca-central"): 0.198,
    ("ap-southeast", "ap-south"): 0.058,
    ("ap-southeast", "eu-north"): 0.186,
    ("sa-east", "ca-central"): 0.122,
    ("sa-east", "ap-south"): 0.284,
    ("sa-east", "eu-north"): 0.208,
    ("ca-central", "ap-south"): 0.204,
    ("ca-central", "eu-north"): 0.092,
    ("ap-south", "eu-north"): 0.140,
}

#: Intra-region RTT: "less than 1 ms within regions".
INTRA_REGION_RTT = 0.0008
#: Multiplicative jitter of every region latency model (one-way delays
#: are scaled uniformly in [1 - jitter, 1 + jitter]).
REGION_JITTER = 0.1


def regions_for(cluster_count: int) -> list[str]:
    """First ``cluster_count`` regions of the pool."""
    if not 1 <= cluster_count <= len(REGIONS):
        raise ExperimentError(
            f"cluster count must be 1..{len(REGIONS)}: {cluster_count!r}")
    return REGIONS[:cluster_count]


def latency_model_for(topology: Topology) -> RegionLatencyModel:
    """Region latency model covering every node in ``topology``."""
    return RegionLatencyModel(dict(topology.node_regions), RTT_MATRIX,
                              intra_rtt=INTRA_REGION_RTT,
                              jitter=REGION_JITTER)
