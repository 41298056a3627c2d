"""Tests for loss models."""

import random

import pytest

from repro.errors import NetworkError
from repro.net.loss import BernoulliLoss, NoLoss


def drop_fraction(model, n=5000, now=0.0):
    rng = random.Random(42)
    drops = sum(model.should_drop(rng, "a", "b", now) for _ in range(n))
    return drops / n


class TestNoLoss:
    def test_never_drops(self):
        assert drop_fraction(NoLoss()) == 0.0


class TestBernoulliLoss:
    def test_zero_rate(self):
        assert drop_fraction(BernoulliLoss(0.0)) == 0.0

    def test_full_rate(self):
        assert drop_fraction(BernoulliLoss(1.0)) == 1.0

    def test_rate_matches_statistics(self):
        assert drop_fraction(BernoulliLoss(0.05)) == pytest.approx(0.05,
                                                                   abs=0.01)

    def test_invalid_rate(self):
        with pytest.raises(NetworkError):
            BernoulliLoss(1.5)
        with pytest.raises(NetworkError):
            BernoulliLoss(-0.1)

