"""Structured event trace.

Consensus nodes emit trace events (role changes, commits, config changes,
recoveries). Invariant checkers and tests consume the trace to verify,
e.g., election safety ("at most one leader per term") without poking at
node internals mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    ``category`` is a short dotted string such as ``"role.leader"``,
    ``"commit"``, ``"config.change"``; ``payload`` holds event-specific
    details.
    """

    time: float
    node: str
    category: str
    payload: dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TraceEvent(t={self.time:.4f}, node={self.node!r}, "
                f"{self.category!r}, {self.payload!r})")


class TraceRecorder:
    """Append-only trace with simple query helpers.

    Recording can be disabled wholesale (``enabled=False``) for large
    benchmark runs where the trace would dominate memory.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: list[TraceEvent] = []

    def record(self, time: float, node: str, category: str,
               **payload: Any) -> None:
        if not self.enabled:
            return
        self._events.append(TraceEvent(time, node, category, payload))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> list[TraceEvent]:
        """The raw event list (do not mutate)."""
        return self._events

    def select(self, category: str | None = None, node: str | None = None,
               predicate: Callable[[TraceEvent], bool] | None = None
               ) -> list[TraceEvent]:
        """Filter events by exact category, node, and/or predicate."""
        out = []
        for event in self._events:
            if category is not None and event.category != category:
                continue
            if node is not None and event.node != node:
                continue
            if predicate is not None and not predicate(event):
                continue
            out.append(event)
        return out

    def select_prefix(self, prefix: str) -> list[TraceEvent]:
        """Events whose category starts with ``prefix``."""
        return [e for e in self._events if e.category.startswith(prefix)]
