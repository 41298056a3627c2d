"""Snapshot value types.

A :class:`Snapshot` is everything a site needs to resume operation at a
commit point without holding the log prefix below it:

- the state-machine image (whatever ``StateMachine.snapshot()`` returned
  at capture time -- the machines' images are restorable via
  ``StateMachine.restore``),
- the last included index and its term (the log consistency anchor:
  AppendEntries with ``prev_log_index`` at the snapshot point must still
  be answerable),
- the governing configuration at capture time (CONFIG entries below the
  snapshot point are gone, so the membership they established must
  travel with the image),
- the applied entry ids (the SMR layer's exactly-once guard: a retried
  request that committed both below and above the snapshot point must
  still apply once).

Snapshots are immutable and shared by reference across the simulation,
like log entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Snapshot:
    """A durable image of replicated state at one commit point."""

    last_included_index: int
    last_included_term: int
    machine_state: Any
    #: Entry ids already applied to the machine (exactly-once dedup).
    applied_ids: tuple[str, ...] = ()
    #: Governing configuration at capture time (None: bootstrap applies).
    config_members: tuple[str, ...] | None = None
    config_version: int = 0
    #: Standing non-voting observers of that configuration -- the
    #: observer role must survive compaction exactly like membership,
    #: or a tiebreaker would silently vanish when its CONFIG entry is
    #: swallowed by a snapshot.
    config_observers: tuple[str, ...] = ()
    #: Simulation time of capture and the capturing site (diagnostics).
    taken_at: float = 0.0
    origin: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Snapshot idx={self.last_included_index} "
                f"term={self.last_included_term} origin={self.origin!r}>")


@dataclass(frozen=True)
class SnapshotImage:
    """What the hosting server contributes to a snapshot: the machine
    image plus the applied-id set (the engine adds the log/config
    metadata itself)."""

    machine_state: Any
    applied_ids: tuple[str, ...] = ()


def newest(a: Snapshot | None, b: Snapshot | None) -> Snapshot | None:
    """The snapshot covering the higher commit point (None-tolerant)."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a.last_included_index >= b.last_included_index else b


def carried_config(snapshot: Snapshot | None
                   ) -> tuple[int, tuple[str, ...] | None, tuple[str, ...]]:
    """``(version, members, observers)`` that ``snapshot`` carries: the
    base :meth:`repro.consensus.log.RaftLog.config_at` weighs the log's
    CONFIG entries against, since those below the snapshot point are
    gone. ``(0, None, ())`` when there is no snapshot or it carries no
    configuration."""
    if snapshot is None or not snapshot.config_members:
        return 0, None, ()
    return (snapshot.config_version, snapshot.config_members,
            snapshot.config_observers)
