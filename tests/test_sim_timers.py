"""Tests for the timer building blocks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.loop import SimLoop
from repro.sim.timers import (
    PeriodicTimer,
    RestartableTimer,
    randomized_timeout,
)


class TestPeriodicTimer:
    def test_fires_every_interval(self):
        loop = SimLoop()
        times = []
        timer = PeriodicTimer(loop, 0.1, lambda: times.append(loop.now()))
        timer.start()
        loop.run_until(0.35)
        assert times == pytest.approx([0.1, 0.2, 0.3])

    def test_not_started_does_not_fire(self):
        loop = SimLoop()
        times = []
        PeriodicTimer(loop, 0.1, lambda: times.append(loop.now()))
        loop.run_until(1.0)
        assert times == []

    def test_stop_halts_firing(self):
        loop = SimLoop()
        times = []
        timer = PeriodicTimer(loop, 0.1, lambda: times.append(loop.now()))
        timer.start()
        loop.run_until(0.25)
        timer.stop()
        loop.run_until(1.0)
        assert len(times) == 2

    def test_start_is_idempotent(self):
        loop = SimLoop()
        times = []
        timer = PeriodicTimer(loop, 0.1, lambda: times.append(loop.now()))
        timer.start()
        timer.start()
        loop.run_until(0.15)
        assert len(times) == 1

    def test_callback_can_stop_timer(self):
        loop = SimLoop()
        timer = PeriodicTimer(loop, 0.1, lambda: timer.stop())
        timer.start()
        loop.run_until(1.0)
        assert not timer.running

    def test_restart_after_stop(self):
        loop = SimLoop()
        times = []
        timer = PeriodicTimer(loop, 0.1, lambda: times.append(loop.now()))
        timer.start()
        loop.run_until(0.15)
        timer.stop()
        loop.run_until(0.5)
        timer.start()
        loop.run_until(0.65)
        assert times == pytest.approx([0.1, 0.6])

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            PeriodicTimer(SimLoop(), 0.0, lambda: None)


class TestRestartableTimer:
    def test_fires_after_delay(self):
        loop = SimLoop()
        fired = []
        timer = RestartableTimer(loop, lambda: fired.append(loop.now()))
        timer.reset(0.3)
        loop.run_until(1.0)
        assert fired == [0.3]

    def test_fires_once(self):
        loop = SimLoop()
        fired = []
        timer = RestartableTimer(loop, lambda: fired.append(1))
        timer.reset(0.1)
        loop.run_until(1.0)
        assert fired == [1]

    def test_reset_postpones(self):
        loop = SimLoop()
        fired = []
        timer = RestartableTimer(loop, lambda: fired.append(loop.now()))
        timer.reset(0.3)
        loop.run_until(0.2)
        timer.reset(0.3)
        loop.run_until(1.0)
        assert fired == [pytest.approx(0.5)]

    def test_cancel(self):
        loop = SimLoop()
        fired = []
        timer = RestartableTimer(loop, lambda: fired.append(1))
        timer.reset(0.1)
        timer.cancel()
        loop.run_until(1.0)
        assert fired == []

    def test_rearm_inside_callback(self):
        loop = SimLoop()
        fired = []

        def on_fire():
            fired.append(loop.now())
            if len(fired) < 3:
                timer.reset(0.1)

        timer = RestartableTimer(loop, on_fire)
        timer.reset(0.1)
        loop.run_until(1.0)
        assert fired == pytest.approx([0.1, 0.2, 0.3])


class TestRandomizedTimeout:
    def test_within_range(self):
        rng = random.Random(0)
        for _ in range(100):
            value = randomized_timeout(rng, 0.3, 0.6)
            assert 0.3 <= value < 0.6

    def test_spread(self):
        rng = random.Random(0)
        values = {round(randomized_timeout(rng, 0.3, 0.6), 3)
                  for _ in range(50)}
        assert len(values) > 40  # genuinely randomized

    @given(low=st.floats(min_value=1e-6, max_value=2.0, allow_nan=False),
           span=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           draws=st.integers(min_value=1, max_value=100))
    @settings(deadline=None, max_examples=60)
    def test_is_rng_uniform(self, low, span, seed, draws):
        """``randomized_timeout`` spells out ``Random.uniform``'s body to
        save its frame: the same float from the same single draw, and
        the generator left in the same state."""
        rng_reference = random.Random(seed)
        rng_timer = random.Random(seed)
        for _ in range(draws):
            assert (randomized_timeout(rng_timer, low, low + span)
                    == rng_reference.uniform(low, low + span))
        assert rng_timer.getstate() == rng_reference.getstate()

    def test_invalid_range_rejected(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            randomized_timeout(rng, 0.6, 0.3)
        with pytest.raises(ValueError):
            randomized_timeout(rng, 0.0, 0.3)
