"""Workload drivers.

The paper's proposers are closed-loop: "The proposer only proposed a new
entry after the previous entry was committed."
:class:`ClosedLoopWorkload` reproduces that.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from repro.smr.client import Client, RequestRecord


def _default_command_factory(sequence: int) -> Any:
    return {"op": "put", "key": f"k{sequence}", "value": sequence}


class ClosedLoopWorkload:
    """Submit the next command as soon as the previous one commits."""

    def __init__(self, client: Client,
                 command_factory: Callable[[int], Any] | None = None,
                 max_requests: int | None = None) -> None:
        self._client = client
        self._factory = command_factory or _default_command_factory
        self._max_requests = max_requests
        self._sequence = itertools.count()
        self._submitted = 0
        self.records: list[RequestRecord] = []
        self._stopped = False

    def start(self) -> None:
        self._submit_next()

    def stop(self) -> None:
        self._stopped = True

    @property
    def completed_count(self) -> int:
        return sum(1 for r in self.records if r.done)

    def latencies(self) -> list[float]:
        return [r.latency for r in self.records if r.latency is not None]

    def _submit_next(self) -> None:
        if self._stopped:
            return
        if (self._max_requests is not None
                and self._submitted >= self._max_requests):
            return
        command = self._factory(next(self._sequence))
        self._submitted += 1
        record = self._client.submit(command, on_done=self._on_done)
        self.records.append(record)

    def _on_done(self, record: RequestRecord) -> None:
        self._submit_next()

    @property
    def done(self) -> bool:
        """True when the requested number of commands all committed."""
        if self._max_requests is None:
            return False
        return (self._submitted >= self._max_requests
                and self.completed_count >= self._max_requests)

