"""One-way message latency models.

The paper reports round-trip latencies of 10--300 ms between AWS regions
and under 1 ms within a region; models here are parameterized in one-way
seconds (half the RTT).
"""

from __future__ import annotations

import random

from repro.errors import NetworkError


class LatencyModel:
    """Samples the one-way delay for a message from ``src`` to ``dst``."""

    #: When True the network computes each message's payload size and
    #: calls :meth:`transfer_delay`; plain models skip that work.
    size_aware = False

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        raise NotImplementedError

    def transfer_delay(self, rng: random.Random, src: str, dst: str,
                       size: int) -> float:
        """One-way delay for a message of ``size`` simulated bytes.

        The default ignores size (pure propagation delay); decorators
        like :class:`BandwidthLatencyModel` add serialization cost.
        """
        return self.sample(rng, src, dst)


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay`` seconds.

    Useful for tests and for the message-round validation experiment
    (Figs. 1-2), where latency must be an exact multiple of hops.
    """

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise NetworkError(f"delay must be non-negative: {delay!r}")
        self.delay = delay

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"ConstantLatency({self.delay!r})"


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[low, high)`` seconds."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise NetworkError(f"invalid latency range [{low!r}, {high!r})")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        # random.Random.uniform's body, without its frame: the same one
        # draw, the same float (tests/test_net_latency.py holds the two
        # together on twin generators).
        return self.low + (self.high - self.low) * rng.random()

    def __repr__(self) -> str:
        return f"UniformLatency({self.low!r}, {self.high!r})"


class BandwidthLatencyModel(LatencyModel):
    """Decorator adding ``size / bandwidth`` serialization delay.

    Wraps any :class:`LatencyModel`: the base model supplies propagation
    delay, this adds the time the payload spends on the wire. This is
    what makes a 10,000-entry InstallSnapshot slower than a heartbeat --
    and what chunked snapshot transfer exists to hide (chunks overlap
    their serialization with acks in flight; one monolithic image cannot).

    ``bandwidth`` is in simulated bytes per second (one-way). Each
    message is charged independently, i.e. the link is modeled as
    uncongested: concurrent messages do not queue behind each other.
    That under-charges a saturated link but keeps the model stateless
    and the simulation deterministic per-message.

    Being :attr:`size_aware`, it answers only :meth:`transfer_delay`:
    the network never asks it for a size-blind :meth:`sample` (and the
    C-Raft envelope fast path is off under it, see ``Network.env_fast``).
    """

    size_aware = True

    def __init__(self, base: LatencyModel, bandwidth: float) -> None:
        if bandwidth <= 0:
            raise NetworkError(f"bandwidth must be positive: {bandwidth!r}")
        self.base = base
        self.bandwidth = bandwidth

    def serialization_delay(self, size: int) -> float:
        """Wire time for ``size`` bytes (monotone non-decreasing)."""
        return max(0, size) / self.bandwidth

    def transfer_delay(self, rng: random.Random, src: str, dst: str,
                       size: int) -> float:
        return (self.base.transfer_delay(rng, src, dst, size)
                + self.serialization_delay(size))

    def __repr__(self) -> str:
        return (f"BandwidthLatencyModel({self.base!r}, "
                f"bandwidth={self.bandwidth!r})")


class RegionLatencyModel(LatencyModel):
    """Latency determined by the (region(src), region(dst)) pair.

    ``rtt_matrix`` maps unordered region pairs to round-trip seconds; the
    sampled one-way delay is ``rtt/2`` scaled by multiplicative jitter
    uniform in ``[1 - jitter, 1 + jitter]``. Nodes in the same region use
    the ``intra_rtt`` default unless the matrix overrides the self-pair.
    """

    def __init__(self, node_regions: dict[str, str],
                 rtt_matrix: dict[tuple[str, str], float],
                 intra_rtt: float = 0.001,
                 jitter: float = 0.1) -> None:
        if not 0 <= jitter < 1:
            raise NetworkError(f"jitter must be in [0, 1): {jitter!r}")
        self._node_regions = dict(node_regions)
        self._rtt: dict[tuple[str, str], float] = {}
        for (a, b), rtt in rtt_matrix.items():
            if rtt < 0:
                raise NetworkError(f"negative RTT for ({a!r}, {b!r})")
            self._rtt[self._key(a, b)] = rtt
        self._intra_rtt = intra_rtt
        self._jitter = jitter
        # (src, dst) -> one-way base delay. Region assignments are
        # fixed per node, so resolving region_of twice plus the matrix
        # lookup per message is pure rework; the jitter draw stays in
        # sample() so the RNG stream is untouched.
        self._pair_one_way: dict[tuple[str, str], float] = {}
        # Flat-sampler constants: ``rng.uniform(a, b)`` evaluates
        # ``a + (b - a) * rng.random()``, so with ``a = 1 - jitter`` and
        # ``b = 1 + jitter`` precomputed exactly as uniform() would
        # combine them, ``base * (lo + span * rng.random())`` is
        # bit-identical to the ``rng.uniform`` draw of the class-level
        # :meth:`sample` -- same single RNG call, same float operations
        # in the same order (tests/test_net_latency.py holds the two
        # together). ``_sample_flat`` is installed per instance so the
        # per-message hot path skips the jitter branch and the uniform()
        # frame; the zero-jitter model keeps the draw-free ``sample``.
        self._jitter_lo = 1.0 - jitter
        self._jitter_span = (1.0 + jitter) - self._jitter_lo
        if jitter:
            self.sample = self._sample_flat  # type: ignore[method-assign]

    @staticmethod
    def _key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def region_of(self, node: str) -> str:
        try:
            return self._node_regions[node]
        except KeyError:
            raise NetworkError(f"node {node!r} has no region") from None

    def rtt_between(self, region_a: str, region_b: str) -> float:
        if region_a == region_b:
            return self._rtt.get(self._key(region_a, region_b),
                                 self._intra_rtt)
        key = self._key(region_a, region_b)
        if key not in self._rtt:
            raise NetworkError(f"no RTT configured for {key!r}")
        return self._rtt[key]

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        one_way = self._pair_one_way.get((src, dst))
        if one_way is None:
            rtt = self.rtt_between(self.region_of(src), self.region_of(dst))
            one_way = rtt / 2.0
            self._pair_one_way[(src, dst)] = one_way
        if self._jitter:
            one_way *= rng.uniform(1.0 - self._jitter, 1.0 + self._jitter)
        return one_way

    def _sample_flat(self, rng: random.Random, src: str, dst: str) -> float:
        """Flat jittered sampler (see __init__); replaces ``sample``
        whenever the model jitters."""
        one_way = self._pair_one_way.get((src, dst))
        if one_way is None:
            rtt = self.rtt_between(self.region_of(src), self.region_of(dst))
            one_way = rtt / 2.0
            self._pair_one_way[(src, dst)] = one_way
        return one_way * (self._jitter_lo + self._jitter_span * rng.random())

    def __repr__(self) -> str:
        regions = sorted({r for r in self._node_regions.values()})
        return (f"RegionLatencyModel(regions={regions}, "
                f"intra_rtt={self._intra_rtt}, jitter={self._jitter})")
