"""Two minimal state machines the tests replicate beside the KV store."""

from __future__ import annotations

from typing import Any

from repro.smr.machine import StateMachine


class AppendOnlyLog(StateMachine):
    """Records every command in order -- the minimal observable machine,
    used to compare apply sequences across sites."""

    def __init__(self) -> None:
        self.commands: list[Any] = []

    def apply(self, command: Any) -> Any:
        self.commands.append(command)
        return len(self.commands)

    def snapshot(self) -> Any:
        return tuple(self.commands)

    def restore(self, state: Any) -> None:
        self.commands = list(state)


class CounterMachine(StateMachine):
    """A counter supporting ``{"op": "add", "amount": n}`` commands."""

    def __init__(self) -> None:
        self.value = 0

    def apply(self, command: Any) -> Any:
        if not isinstance(command, dict) or command.get("op") != "add":
            raise ValueError(f"unknown counter command: {command!r}")
        self.value += command.get("amount", 1)
        return self.value

    def snapshot(self) -> Any:
        return self.value

    def restore(self, state: Any) -> None:
        self.value = state
