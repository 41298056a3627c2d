"""In-memory stable storage with crash/recovery semantics.

Model: a write to the store is durable the instant it returns (write-
through, fsync-per-write). Mutable objects placed in the store (e.g. the
replicated log) are held by reference, so in-place mutations are durable
immediately too -- a *conservative* durability model: nothing a node did
before crashing is ever lost, matching the paper's assumption that
persistent state "can be read from upon recovery". The paper's
``commitIndex`` is explicitly volatile ("if a site crashes and recovers,
it will need to relearn which log entries are committed"), so nodes must
simply not store it here.
"""

from __future__ import annotations

from typing import Any

from repro.errors import StorageError
from repro.net.sizes import estimate_size


class StableStore:
    """Per-site durable key/value store."""

    def __init__(self, owner: str) -> None:
        self._owner = owner
        self._values: dict[str, Any] = {}
        self._writes = 0
        self._write_bytes = 0

    @property
    def write_count(self) -> int:
        """Total durable writes (a cheap proxy for fsync cost in reports)."""
        return self._writes

    @property
    def write_bytes(self) -> int:
        """Payload-weighted durable writes: ``write_count`` treats a
        multi-kilobyte snapshot save and an 8-byte term bump as one fsync
        each, which understates snapshot overhead exactly where the
        catch-up benchmarks care about it. Every write adds its payload
        size (measured for :meth:`set`, caller-supplied for
        :meth:`touch`) to this counter."""
        return self._write_bytes

    def set(self, key: str, value: Any) -> None:
        """Durably store ``value`` under ``key``."""
        self._values[key] = value
        self._writes += 1
        self._write_bytes += max(1, estimate_size(value))

    def touch(self, key: str, size: int = 1) -> None:
        """Record one durable write to a stored *mutable* object that was
        modified in place. The reference model makes such mutations
        durable automatically, but without this the write counter would
        understate fsync cost: callers must touch the key at every
        mutation site (e.g. the engines touch ``"log"`` on log writes).

        ``size`` is the payload written in place (simulated bytes): a
        replication batch passes its entries' size so appending 100
        entries costs more than appending one."""
        if key not in self._values:
            raise StorageError(
                f"{self._owner}: cannot touch unwritten key {key!r}")
        self._writes += 1
        self._write_bytes += max(1, size)

    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StableStore {self._owner} keys={sorted(self._values)}>"


class StorageFabric:
    """Registry of per-site stores that outlives node objects.

    Crash recovery builds a *new* node object for the same name; handing
    both the old and new object the same :class:`StableStore` via this
    fabric is what makes persistent state survive.
    """

    def __init__(self) -> None:
        self._stores: dict[str, StableStore] = {}

    def store_for(self, name: str) -> StableStore:
        store = self._stores.get(name)
        if store is None:
            store = StableStore(name)
            self._stores[name] = store
        return store

    def __contains__(self, name: str) -> bool:
        return name in self._stores
