"""Tests for metrics: summaries and round accounting."""

import pytest

from repro.metrics.rounds import hops_from_latency
from repro.metrics.summary import percentile, summarize


class TestSummary:
    def test_basic_stats(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.count == 5
        assert stats.mean == 3.0
        assert stats.median == 3.0
        assert stats.minimum == 1.0
        assert stats.maximum == 5.0

    def test_single_value(self):
        stats = summarize([7.0])
        assert stats.stdev == 0.0
        assert stats.p95 == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_percentile_interpolates(self):
        values = sorted([0.0, 10.0])
        assert percentile(values, 0.5) == 5.0
        assert percentile(values, 0.25) == 2.5

    def test_stdev_sample(self):
        stats = summarize([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.stdev == pytest.approx(2.138, abs=0.01)


class TestRounds:
    def test_exact_multiples(self):
        assert hops_from_latency(0.03, 0.01) == 3
        assert hops_from_latency(0.0201, 0.01, tolerance=0.25) == 2

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            hops_from_latency(0.025, 0.01, tolerance=0.1)

    def test_bad_delay_rejected(self):
        with pytest.raises(ValueError):
            hops_from_latency(0.03, 0.0)


class TestTailPercentiles:
    def test_summarize_fills_p99_p999(self):
        values = [float(i) for i in range(1, 1001)]
        stats = summarize(values)
        assert stats.p99 == pytest.approx(990.01)
        assert stats.p999 == pytest.approx(999.001)
        assert stats.p99 <= stats.p999 <= stats.maximum

    def test_single_value_tails(self):
        stats = summarize([3.0])
        assert stats.p99 == 3.0
        assert stats.p999 == 3.0


class TestStreamingReservoir:
    def make(self, capacity, seed=7):
        import random
        from repro.metrics.summary import StreamingReservoir
        return StreamingReservoir(capacity, random.Random(seed))

    def test_exact_stats_survive_overflow(self):
        reservoir = self.make(capacity=16)
        for i in range(1, 1001):
            reservoir.add(float(i))
        stats = reservoir.summary()
        assert stats.count == 1000          # exact, not sampled
        assert stats.minimum == 1.0
        assert stats.maximum == 1000.0
        assert stats.mean == pytest.approx(500.5)
        assert len(reservoir._sample) == 16  # bounded memory

    def test_below_capacity_keeps_everything(self):
        reservoir = self.make(capacity=100)
        for v in (3.0, 1.0, 2.0):
            reservoir.add(v)
        assert reservoir.summary() == summarize([3.0, 1.0, 2.0])
        assert reservoir.summary().median == 2.0

    def test_deterministic_with_injected_rng(self):
        a, b = self.make(8, seed=42), self.make(8, seed=42)
        for i in range(500):
            a.add(float(i))
            b.add(float(i))
        assert a.summary() == b.summary()

    def test_sample_is_plausibly_uniform(self):
        reservoir = self.make(capacity=200, seed=3)
        for i in range(10_000):
            reservoir.add(float(i))
        stats = reservoir.summary()
        # a uniform sample of 0..9999 pins the quartiles loosely
        assert 3000 < stats.median < 7000

    def test_empty_and_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            self.make(capacity=0)
        with pytest.raises(ValueError):
            self.make(capacity=4).summary()

