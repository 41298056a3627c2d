"""Measurement utilities for the experiments.

- :mod:`repro.metrics.summary` -- dependency-free summary statistics
  (mean, median, percentiles, confidence half-widths).
- :mod:`repro.metrics.rounds` -- message-round accounting used to validate
  the paper's Fig. 1/Fig. 2 message-flow claims.
"""

from repro.metrics.rounds import hops_from_latency
from repro.metrics.summary import (
    SnapshotCounters,
    StreamingReservoir,
    SummaryStats,
    summarize,
    tally_snapshots,
)

__all__ = [
    "SnapshotCounters",
    "StreamingReservoir",
    "SummaryStats",
    "hops_from_latency",
    "summarize",
    "tally_snapshots",
]
