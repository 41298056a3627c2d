"""Message-loss models.

The paper forces loss rates with Linux ``tc``, which drops each packet
independently with a fixed probability -- exactly the Bernoulli model
here. A run changes the rate mid-experiment by swapping the model
(``Network.set_loss``).
"""

from __future__ import annotations

import random

from repro.errors import NetworkError


class LossModel:
    """Decides whether to drop a message from ``src`` to ``dst`` at ``now``."""

    def should_drop(self, rng: random.Random, src: str, dst: str,
                    now: float) -> bool:
        raise NotImplementedError


class NoLoss(LossModel):
    """Reliable network (no drops)."""

    def should_drop(self, rng: random.Random, src: str, dst: str,
                    now: float) -> bool:
        return False

    def __repr__(self) -> str:
        return "NoLoss()"


class BernoulliLoss(LossModel):
    """Each message independently dropped with probability ``rate``."""

    def __init__(self, rate: float) -> None:
        if not 0 <= rate <= 1:
            raise NetworkError(f"loss rate must be in [0, 1]: {rate!r}")
        self.rate = rate

    def should_drop(self, rng: random.Random, src: str, dst: str,
                    now: float) -> bool:
        if self.rate == 0:
            return False
        return rng.random() < self.rate

    def __repr__(self) -> str:
        return f"BernoulliLoss({self.rate!r})"

