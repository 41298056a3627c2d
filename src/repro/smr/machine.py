"""The state-machine interface.

A state machine is deterministic: applying the same command sequence
yields the same state everywhere, which together with the consensus
layer's total order gives replicated consistency.
"""

from __future__ import annotations

from typing import Any


class StateMachine:
    """Deterministic application state."""

    def apply(self, command: Any) -> Any:
        """Apply one committed command; returns a command-specific result."""
        raise NotImplementedError

    def snapshot(self) -> Any:
        """A comparable representation of the full state (for checkers)."""
        raise NotImplementedError

    def restore(self, state: Any) -> None:
        """Replace the machine's state with a previously captured
        :meth:`snapshot` image (log compaction / InstallSnapshot)."""
        raise NotImplementedError

