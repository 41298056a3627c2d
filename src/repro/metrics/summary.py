"""Dependency-free summary statistics for experiment reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class SummaryStats:
    """Summary of a sample of measurements."""

    count: int
    mean: float
    median: float
    stdev: float
    minimum: float
    maximum: float
    p5: float
    p95: float
    #: Tail percentiles for serving SLOs (0.0 when not computed by an
    #: older caller; ``summarize`` always fills them).
    p99: float = 0.0
    p999: float = 0.0


@dataclass(frozen=True)
class SnapshotCounters:
    """Aggregate snapshot/compaction activity across a set of engines
    (every engine exposes the four counters; see BaseEngine)."""

    taken: int = 0
    installed: int = 0
    shipped: int = 0
    entries_compacted: int = 0
    #: Chunk messages sent by leaders (0 under monolithic transfer).
    chunks_sent: int = 0

    def format(self) -> str:
        chunks = (f" ({self.chunks_sent} chunks)" if self.chunks_sent else "")
        return (f"snapshots: {self.taken} taken, {self.shipped} shipped"
                f"{chunks}, {self.installed} installed, "
                f"{self.entries_compacted} entries compacted")


def tally_snapshots(engines: Iterable) -> SnapshotCounters:
    """Sum the per-engine snapshot counters for a report."""
    taken = installed = shipped = compacted = chunks = 0
    for engine in engines:
        taken += getattr(engine, "snapshots_taken", 0)
        installed += getattr(engine, "snapshots_installed", 0)
        shipped += getattr(engine, "snapshots_shipped", 0)
        compacted += getattr(engine, "entries_compacted", 0)
        chunks += getattr(engine, "snapshot_chunks_sent", 0)
    return SnapshotCounters(taken=taken, installed=installed,
                            shipped=shipped, entries_compacted=compacted,
                            chunks_sent=chunks)


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of pre-sorted values.

    The interpolation is computed as ``lo + (hi - lo) * w`` and clamped
    to ``[lo, hi]`` so floating-point rounding can never push the result
    outside its bracketing pair (which would break monotonicity of
    percentiles, e.g. p5 > p95 on constant data).
    """
    if not sorted_values:
        raise ValueError("no values")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return sorted_values[lower]
    low_value, high_value = sorted_values[lower], sorted_values[upper]
    value = low_value + (high_value - low_value) * (position - lower)
    return min(max(value, low_value), high_value)


def summarize(values: list[float]) -> SummaryStats:
    """Compute :class:`SummaryStats`; raises on an empty sample."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(values)
    count = len(ordered)
    # Clamped like percentile(): floating-point summation can push the
    # mean a ULP outside [min, max] (e.g. three identical values).
    mean = min(max(sum(ordered) / count, ordered[0]), ordered[-1])
    if count > 1:
        variance = sum((v - mean) ** 2 for v in ordered) / (count - 1)
        stdev = math.sqrt(variance)
    else:
        stdev = 0.0
    return SummaryStats(
        count=count, mean=mean, median=percentile(ordered, 0.5),
        stdev=stdev, minimum=ordered[0], maximum=ordered[-1],
        p5=percentile(ordered, 0.05), p95=percentile(ordered, 0.95),
        p99=percentile(ordered, 0.99), p999=percentile(ordered, 0.999))


class StreamingReservoir:
    """Bounded-memory percentile sketch for high-volume runs.

    Classic reservoir sampling (Algorithm R) with an *injected* rng so
    simulations stay deterministic: every value updates the exact
    count/sum/min/max; a uniform sample of ``capacity`` values stands in
    for the full distribution when percentiles are needed. With tens of
    thousands of sessions, keeping every latency would dominate scenario
    memory; a few thousand samples pin the tail estimates well enough
    for SLO checks.
    """

    __slots__ = ("_capacity", "_rng", "_sample", "count", "total",
                 "minimum", "maximum")

    def __init__(self, capacity: int, rng) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity!r}")
        self._capacity = capacity
        self._rng = rng
        self._sample: list[float] = []
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self._sample) < self._capacity:
            self._sample.append(value)
            return
        slot = self._rng.randrange(self.count)
        if slot < self._capacity:
            self._sample[slot] = value

    def summary(self) -> SummaryStats:
        """Exact count/mean/min/max; percentiles and stdev estimated
        from the sample. Raises on an empty stream."""
        if not self.count:
            raise ValueError("cannot summarize an empty stream")
        estimated = summarize(self._sample)
        mean = min(max(self.total / self.count, self.minimum), self.maximum)
        return SummaryStats(
            count=self.count, mean=mean, median=estimated.median,
            stdev=estimated.stdev, minimum=self.minimum,
            maximum=self.maximum, p5=estimated.p5, p95=estimated.p95,
            p99=estimated.p99, p999=estimated.p999)

