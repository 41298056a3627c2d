"""Actor: base class for simulated processes.

An actor is anything that lives on the simulation loop and receives
messages from the network: consensus nodes, clients, fault injectors.
Subclasses implement :meth:`on_message`. The network checks
:attr:`alive` itself (a crashed actor's traffic is a dead letter) and
calls :meth:`on_message` directly; :meth:`deliver` is the same gate for
callers that hold an actor and not the fabric.
"""

from __future__ import annotations

from typing import Any

from repro.sim.loop import SimLoop


class Actor:
    """A named simulated process bound to a :class:`SimLoop`."""

    def __init__(self, loop: SimLoop, name: str) -> None:
        self._loop = loop
        self._name = name
        self._alive = True

    @property
    def loop(self) -> SimLoop:
        return self._loop

    @property
    def name(self) -> str:
        return self._name

    @property
    def alive(self) -> bool:
        return self._alive

    def now(self) -> float:
        """Current virtual time (convenience passthrough)."""
        return self._loop.now()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Stop the actor: it no longer receives messages.

        Subclasses override to also cancel their timers, then call
        ``super().kill()``.
        """
        self._alive = False

    def revive(self) -> None:
        """Mark the actor alive again (crash recovery).

        Subclasses override to restore volatile state and restart timers,
        then call ``super().revive()``.
        """
        self._alive = True

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def deliver(self, message: Any, sender: str) -> None:
        """Hand ``message`` to the actor; dropped when it is dead."""
        if not self._alive:
            return
        self.on_message(message, sender)

    def on_message(self, message: Any, sender: str) -> None:
        """Handle a delivered message. Subclasses must implement."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self._alive else "dead"
        return f"<{type(self).__name__} {self._name} {state}>"
