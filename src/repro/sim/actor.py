"""Actor: base class for simulated processes.

An actor is anything that lives on the simulation loop and receives
messages from the network: consensus nodes, clients, fault injectors.
Subclasses implement :meth:`on_message`. The network checks
:attr:`alive` (a crashed actor's traffic is a dead letter) and calls
:meth:`on_message`.

``name``, ``alive`` and ``loop`` are plain instance attributes and
``now`` is the loop's own bound ``now``: every delivered event reads
them, and a property or a forwarding method costs a full interpreter
frame to return one field. ``name`` and ``loop`` are fixed at
construction; ``alive`` is written only by :meth:`kill` and
:meth:`revive` (subclasses extend those, nothing assigns it directly).
"""

from __future__ import annotations

from typing import Any

from repro.sim.loop import SimLoop


class Actor:
    """A named simulated process bound to a :class:`SimLoop`."""

    def __init__(self, loop: SimLoop, name: str) -> None:
        self.loop = loop
        self.name = name
        self.alive = True
        #: Current virtual time: ``actor.now()`` is ``loop.now()``. (A
        #: bound *Python* method, so ``copy.deepcopy`` -- ``mc``'s world
        #: fork -- rebinds it to the copied loop.)
        self.now = loop.now

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Stop the actor: it no longer receives messages.

        Subclasses override to also cancel their timers, then call
        ``super().kill()``.
        """
        self.alive = False

    def revive(self) -> None:
        """Mark the actor alive again (crash recovery).

        Subclasses override to restore volatile state and restart timers,
        then call ``super().revive()``.
        """
        self.alive = True

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def on_message(self, message: Any, sender: str) -> None:
        """Handle a delivered message. Subclasses must implement."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "dead"
        return f"<{type(self).__name__} {self.name} {state}>"
