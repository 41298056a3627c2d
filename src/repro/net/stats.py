"""Network statistics: message counts by outcome and by message type."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class NetworkStats:
    """Counters maintained by :class:`repro.net.network.Network`, which
    bumps them inline on its send and deliver paths.

    ``sent`` counts every ``send`` call; a message is then exactly one of
    ``delivered``, ``dropped`` (loss model), ``blocked`` (partition or
    disconnected endpoint), or ``dead_letter`` (receiver unknown/killed at
    delivery time).
    """

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    blocked: int = 0
    dead_letter: int = 0
    #: Simulated payload bytes sent (only charged when the latency model
    #: is size-aware; 0 otherwise -- sizing every message would cost real
    #: time for a number nothing consumes).
    bytes_sent: int = 0
    by_type: Counter = field(default_factory=Counter)
    bytes_by_type: Counter = field(default_factory=Counter)
    delivered_by_type: Counter = field(default_factory=Counter)
