"""A replicated key-value store: the stock application state machine.

Commands are plain dicts built by :class:`KVCommand` so they stay
serialization-friendly (the simulated network passes objects by value
semantically, and real deployments would JSON-encode them).
"""

from __future__ import annotations

from typing import Any

from repro.smr.machine import StateMachine


class KVCommand:
    """Builders for the KV command vocabulary."""

    @staticmethod
    def put(key: str, value: Any) -> dict[str, Any]:
        return {"op": "put", "key": key, "value": value}

    @staticmethod
    def append(key: str, value: str) -> dict[str, Any]:
        return {"op": "append", "key": key, "value": value}


class KVStateMachine(StateMachine):
    """Dictionary state with put/delete/append commands."""

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}

    def apply(self, command: Any) -> Any:
        if not isinstance(command, dict):
            raise ValueError(f"KV commands are dicts: {command!r}")
        op = command.get("op")
        key = command.get("key")
        if op == "put":
            self._data[key] = command.get("value")
            return self._data[key]
        if op == "delete":
            return self._data.pop(key, None)
        if op == "append":
            self._data[key] = str(self._data.get(key, "")) + str(
                command.get("value", ""))
            return self._data[key]
        raise ValueError(f"unknown KV op: {op!r}")

    def get(self, key: str, default: Any = None) -> Any:
        """Local (non-linearizable) read of the replica's state."""
        return self._data.get(key, default)

    def snapshot(self) -> Any:
        return dict(self._data)

    def restore(self, state: Any) -> None:
        self._data = dict(state)
