"""Simulated clients and the request ledger.

Clients are sim actors on the system's own loop (one OS thread, no
sockets). :class:`Load` drives them either open-loop (one Poisson arrival
process over a pool of sessions; an arrival that finds no idle session is
*refused* and counts as failed) or closed-loop (``rate=None``: every
client resubmits the instant its previous request completes). Every
arrival lands in :attr:`Load.requests`, the ledger the sim-time metrics
and the correctness gate are computed from after the run.

Every write carries a globally increasing integer ``version`` (the put
value, or the number inside an append token), which is what lets the gate
check exactly-once application and read linearizability from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.smr.client import Client, RequestRecord
from repro.smr.kv import KVCommand


@dataclass(slots=True)
class Request:
    """One arrival. ``record`` is None for a refused arrival."""

    due: float
    site: str
    kind: str                      # "put" | "append" | "read"
    key: str
    version: int = 0               # writes: the version written
    record: RequestRecord | None = None
    #: Reads: newest version of ``key`` acked before the read was
    #: submitted / newest submitted before it completed -- the range a
    #: linearizable read may return.
    floor: int = 0
    ceiling: int = 0


#: ``op(load, client_index) -> (kind, key, token_width)``; token_width
#: pads append tokens to a fixed byte size (0: no padding).
Op = Callable[["Load", int], tuple[str, str, int]]


def append_token(version: int, width: int) -> str:
    """``"<version>;"`` left-padded with ``x`` to ``width`` bytes."""
    return f"{version};".rjust(width, "x")


def parse_tokens(value: Any) -> list[int]:
    """Versions inside an append-built string, in application order."""
    return [int(token.lstrip("x"))
            for token in str(value or "").split(";") if token]


class Load:
    """Request generator over a fixed client population."""

    def __init__(self, system, clients: list[Client], op: Op,
                 rate: float | None, stream: str = "bench.arrivals") -> None:
        self.loop = system.loop
        self.clients = clients
        self.op = op
        self.rate = rate
        self.rng = system.rng.stream(stream)
        self.requests: list[Request] = []
        self.refused = 0
        self.version = 0
        #: key -> newest version submitted / acked so far.
        self.submitted: dict[str, int] = {}
        self.acked: dict[str, int] = {}
        self._idle = list(range(len(clients)))
        self._running = False

    def start(self) -> None:
        self._running = True
        if self.rate is None:
            for index in range(len(self.clients)):
                self._submit(index)
            self._idle.clear()
        else:
            self.loop.call_later(self.rng.expovariate(self.rate),
                                 self._arrive)

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    def _arrive(self) -> None:
        if not self._running:
            return
        idle = self._idle
        if idle:
            slot = self.rng.randrange(len(idle))
            idle[slot], idle[-1] = idle[-1], idle[slot]
            self._submit(idle.pop())
        else:
            self.refused += 1
            self.requests.append(Request(self.loop.now(), "", "refused", ""))
        self.loop.call_later(self.rng.expovariate(self.rate), self._arrive)

    def _submit(self, index: int) -> None:
        client = self.clients[index]
        kind, key, width = self.op(self, index)
        request = Request(self.loop.now(), client.site, kind, key)
        self.requests.append(request)

        def done(record: RequestRecord) -> None:
            self._done(index, request)

        if kind == "read":
            request.floor = self.acked.get(key, 0)
            request.record = client.read(key, on_done=done)
            return
        self.version += 1
        request.version = self.version
        self.submitted[key] = self.version
        command = (KVCommand.put(key, self.version) if kind == "put"
                   else KVCommand.append(key, append_token(self.version,
                                                           width)))
        request.record = client.submit(command, on_done=done)

    def _done(self, index: int, request: Request) -> None:
        key = request.key
        if request.kind == "read":
            request.ceiling = self.submitted.get(key, 0)
        elif request.version > self.acked.get(key, 0):
            self.acked[key] = request.version
        if self.rate is None:
            if self._running:
                self._submit(index)
        else:
            self._idle.append(index)
