"""Simulated network substrate.

Models the paper's testbed network: UDP-like (unordered, unreliable,
asynchronous) messaging with configurable latency and loss.

- Latency models (:mod:`repro.net.latency`): constant, uniform, and a
  region matrix mirroring the paper's AWS inter-region RTTs.
- Loss models (:mod:`repro.net.loss`): Bernoulli drop (the paper's ``tc``
  settings).
- :class:`~repro.net.network.Network`: the switch fabric -- registration,
  unicast, partitions, disconnects, and per-type statistics.
"""

from repro.net.latency import (
    BandwidthLatencyModel,
    ConstantLatency,
    LatencyModel,
    RegionLatencyModel,
    UniformLatency,
)
from repro.net.loss import (
    BernoulliLoss,
    LossModel,
    NoLoss,
)
from repro.net.network import Network
from repro.net.sizes import estimate_size, payload_size
from repro.net.stats import NetworkStats
from repro.net.topology import Topology

__all__ = [
    "BandwidthLatencyModel",
    "BernoulliLoss",
    "ConstantLatency",
    "LatencyModel",
    "LossModel",
    "Network",
    "NetworkStats",
    "NoLoss",
    "RegionLatencyModel",
    "Topology",
    "UniformLatency",
    "estimate_size",
    "payload_size",
]
