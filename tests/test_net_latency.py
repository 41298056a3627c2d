"""Tests for latency models."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import NetworkError
from repro.net.latency import (
    ConstantLatency,
    RegionLatencyModel,
    UniformLatency,
)


class TestConstantLatency:
    def test_sample_is_constant(self):
        model = ConstantLatency(0.01)
        rng = random.Random(0)
        assert model.sample(rng, "a", "b") == 0.01
        assert model.sample(rng, "b", "a") == 0.01

    def test_negative_rejected(self):
        with pytest.raises(NetworkError):
            ConstantLatency(-1)


class TestUniformLatency:
    def test_samples_within_range(self):
        model = UniformLatency(0.001, 0.005)
        rng = random.Random(0)
        for _ in range(200):
            assert 0.001 <= model.sample(rng, "a", "b") < 0.005

    def test_bad_range_rejected(self):
        with pytest.raises(NetworkError):
            UniformLatency(0.005, 0.001)
        with pytest.raises(NetworkError):
            UniformLatency(-0.001, 0.005)


class TestRegionLatencyModel:
    def make(self, jitter=0.0):
        return RegionLatencyModel(
            node_regions={"n0": "us", "n1": "us", "n2": "eu"},
            rtt_matrix={("us", "eu"): 0.080},
            intra_rtt=0.001, jitter=jitter)

    def test_intra_region_uses_intra_rtt(self):
        model = self.make()
        rng = random.Random(0)
        assert model.sample(rng, "n0", "n1") == pytest.approx(0.0005)

    def test_inter_region_is_half_rtt(self):
        model = self.make()
        rng = random.Random(0)
        assert model.sample(rng, "n0", "n2") == pytest.approx(0.040)

    def test_symmetric(self):
        model = self.make()
        rng = random.Random(0)
        assert (model.sample(rng, "n0", "n2")
                == model.sample(rng, "n2", "n0"))

    def test_jitter_bounds(self):
        model = self.make(jitter=0.1)
        rng = random.Random(0)
        for _ in range(200):
            delay = model.sample(rng, "n0", "n2")
            assert 0.036 <= delay <= 0.044

    def test_unknown_node_rejected(self):
        model = self.make()
        with pytest.raises(NetworkError):
            model.sample(random.Random(0), "nX", "n0")

    def test_missing_pair_rejected(self):
        model = RegionLatencyModel({"a": "r1", "b": "r2"}, {},
                                   intra_rtt=0.001)
        with pytest.raises(NetworkError):
            model.sample(random.Random(0), "a", "b")

    def test_region_of(self):
        model = self.make()
        assert model.region_of("n2") == "eu"

    def test_negative_rtt_rejected(self):
        with pytest.raises(NetworkError):
            RegionLatencyModel({"a": "x"}, {("x", "y"): -1.0})

    def test_bad_jitter_rejected(self):
        with pytest.raises(NetworkError):
            RegionLatencyModel({"a": "x"}, {}, jitter=1.5)


class _CountingRandom(random.Random):
    """random.Random that counts core draws (uniform() routes through
    random(), so one count covers both entry points)."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


class TestFlatSamplerEquivalence:
    """The flat jittered sampler a model installs on itself must be a
    pure representation change of the class-level ``sample`` (the
    ``rng.uniform`` form): same delays bit-for-bit, same RNG draw count,
    for any topology."""

    @given(
        n_regions=st.integers(min_value=1, max_value=4),
        n_nodes=st.integers(min_value=2, max_value=8),
        rtts=st.lists(st.floats(min_value=0.001, max_value=0.4,
                                allow_nan=False), min_size=10, max_size=10),
        jitter=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_messages=st.integers(min_value=1, max_value=200),
    )
    @settings(deadline=None, max_examples=60)
    def test_delays_and_draw_count_identical(self, n_regions, n_nodes,
                                             rtts, jitter, seed,
                                             n_messages):
        regions = [f"r{i}" for i in range(n_regions)]
        node_regions = {f"n{i}": regions[i % n_regions]
                        for i in range(n_nodes)}
        rtt_iter = iter(rtts * 2)
        rtt_matrix = {(a, b): next(rtt_iter)
                      for i, a in enumerate(regions)
                      for b in regions[i:]}
        model = RegionLatencyModel(node_regions, rtt_matrix, jitter=jitter)
        if jitter:
            assert model.sample.__func__ is RegionLatencyModel._sample_flat
        else:
            assert "sample" not in vars(model)  # draw-free class method
        pair_rng = random.Random(seed ^ 0x5EED)
        nodes = sorted(node_regions)
        pairs = [(pair_rng.choice(nodes), pair_rng.choice(nodes))
                 for _ in range(n_messages)]
        rng_reference = _CountingRandom(seed)
        rng_installed = _CountingRandom(seed)
        # The class-level function on the same model is the reference.
        reference_delays = [
            RegionLatencyModel.sample(model, rng_reference, s, d)
            for s, d in pairs]
        installed_delays = [model.sample(rng_installed, s, d)
                            for s, d in pairs]
        assert reference_delays == installed_delays  # bit-identical floats
        assert rng_reference.draws == rng_installed.draws
        expected_draws = n_messages if jitter else 0
        assert rng_installed.draws == expected_draws

    @given(low=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
           span=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           n_messages=st.integers(min_value=1, max_value=200))
    @settings(deadline=None, max_examples=60)
    def test_uniform_latency_is_rng_uniform(self, low, span, seed,
                                            n_messages):
        """``UniformLatency.sample`` spells out ``Random.uniform``'s body
        to save its frame: the same float from the same single draw, and
        the generator left in the same state."""
        model = UniformLatency(low, low + span)
        rng_reference = _CountingRandom(seed)
        rng_model = _CountingRandom(seed)
        for _ in range(n_messages):
            assert (model.sample(rng_model, "a", "b")
                    == rng_reference.uniform(model.low, model.high))
        assert rng_model.draws == rng_reference.draws == n_messages
        assert rng_model.getstate() == rng_reference.getstate()
