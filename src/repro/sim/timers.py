"""Timer building blocks used by the consensus protocols.

Two patterns cover everything Raft-family protocols need:

- :class:`PeriodicTimer` -- fires at a fixed interval (heartbeats, the
  leader's periodic decision procedure, batching checks).
- :class:`RestartableTimer` -- one-shot timer that is re-armed explicitly
  (election timeouts, proposal timeouts, join timeouts).
"""

from __future__ import annotations

from typing import Callable

from repro.sim.loop import SimLoop


class PeriodicTimer:
    """Calls ``callback()`` every ``interval`` seconds once started.

    The first firing happens one full interval after :meth:`start`.
    """

    def __init__(self, loop: SimLoop, interval: float,
                 callback: Callable[[], None]) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval!r}")
        self._loop = loop
        self._interval = interval
        self._callback = callback
        #: The pending firing's loop entry, or None while stopped.
        self._entry: list | None = None

    @property
    def running(self) -> bool:
        # stop() clears the entry and _fire() re-arms before calling
        # back, so a held entry is always the pending firing.
        return self._entry is not None

    def start(self) -> None:
        """Arm the timer. No-op if already running."""
        if self.running:
            return
        self._entry = self._loop.schedule(self._interval, self._fire)

    def stop(self) -> None:
        """Disarm the timer. Idempotent."""
        if self._entry is not None:
            self._loop.cancel(self._entry)
            self._entry = None

    def _fire(self) -> None:
        # Re-arm before invoking so the callback can stop() the timer.
        self._entry = self._loop.schedule(self._interval, self._fire)
        self._callback()


class RestartableTimer:
    """One-shot timer with explicit re-arming.

    Used for election timeouts: ``reset(delay)`` postpones the firing,
    e.g. whenever a heartbeat arrives.
    """

    def __init__(self, loop: SimLoop, callback: Callable[[], None]) -> None:
        self._loop = loop
        self._callback = callback
        #: The pending firing's loop entry, or None while disarmed.
        self._entry: list | None = None

    def reset(self, delay: float) -> None:
        """(Re-)arm the timer to fire ``delay`` seconds from now."""
        # cancel()'s body inline: election timers re-arm about once per
        # request, up to 16 times per request on C-Raft meshes.
        loop = self._loop
        if self._entry is not None:
            loop.cancel(self._entry)
        self._entry = loop.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Disarm without firing. Idempotent."""
        if self._entry is not None:
            self._loop.cancel(self._entry)
            self._entry = None

    def _fire(self) -> None:
        self._entry = None
        self._callback()


def randomized_timeout(rng: random.Random, low: float, high: float) -> float:
    """Sample an election timeout uniformly from ``[low, high)``.

    Raft relies on randomized timeouts to break election ties with high
    probability; this helper is the single place that sampling happens so
    tests can pin its distribution.
    """
    if not 0 < low <= high:
        raise ValueError(f"invalid timeout range [{low!r}, {high!r})")
    # random.Random.uniform's body, without its frame: the same one
    # draw, the same float (tests/test_sim_timers.py holds the two
    # together on twin generators).
    return low + (high - low) * rng.random()
