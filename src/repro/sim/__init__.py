"""Deterministic discrete-event simulation kernel.

This package replaces the paper's AWS testbed. Simulated components observe
only message delays, losses, and timer firings, all of which are produced
here deterministically from a root seed, so every experiment is exactly
reproducible.

Public surface:

- :class:`~repro.sim.loop.SimLoop` -- the event loop (virtual clock +
  scheduler). Every pending event is one bare heap entry;
  ``schedule`` / ``cancel`` are the package's own way in.
- :class:`~repro.sim.loop.Handle` -- the view of a scheduled entry that
  the public ``call_later`` / ``call_at`` / ``call_soon`` return
  (``cancel()``, ``when``, ``seq``, ``callback``, ``args``).
- :class:`~repro.sim.rng.RngRegistry` -- named, independent random streams
  derived from one root seed.
- :class:`~repro.sim.timers.PeriodicTimer`,
  :class:`~repro.sim.timers.RestartableTimer` -- timer building blocks used
  by the consensus nodes (heartbeats, election timeouts).
- :class:`~repro.sim.actor.Actor` -- base class for simulated processes.
- :class:`~repro.sim.trace.TraceRecorder` -- structured event trace used by
  invariant checkers and tests.
"""

from repro.sim.actor import Actor
from repro.sim.loop import Handle, SimLoop
from repro.sim.rng import RngRegistry
from repro.sim.timers import PeriodicTimer, RestartableTimer
from repro.sim.trace import TraceEvent, TraceRecorder

__all__ = [
    "Actor",
    "Handle",
    "PeriodicTimer",
    "RestartableTimer",
    "RngRegistry",
    "SimLoop",
    "TraceEvent",
    "TraceRecorder",
]
