"""World snapshots for the model checker: fork, capture, fingerprint.

The explorer treats one prepared simulation (loop + network + servers +
clients) as a *world* and backtracks by forking it with a plain
``copy.deepcopy``. That is enough because scheduled work is data: every
callback on the loop, in a timer or behind a C-Raft gate is a bound
method, or a ``functools.partial`` of one, whose arguments are ordinary
objects. ``deepcopy`` rebinds a method to the copied instance and copies
a partial's arguments through the same memo, so firing an event in the
fork never perturbs the parent (``tests/test_mc.py`` asserts that no
closure is reachable from a world).

A *fingerprint* is a short digest of the consensus-relevant projection of
a world: per-server engine state (term, role, log, configuration -- the
flat engine, or C-Raft's local and global engines plus its pending gates
and outstanding batches), every pending event with the arguments it
carries (a delivery's message, a timer's or task's bound arguments), and
the fault state -- with wall-clock times abstracted away, so two states
that differ only in when their identical futures fire collapse into one
graph node. The projection is what makes exploration tractable; anything
it omits (latency-model internals, metrics counters, the
:func:`~repro.net.sizes.size_memo` caches of wire objects) is invisible to
deduplication, a deliberate abstraction documented in the README.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.net.network import Network
from repro.net.sizes import is_size_memo
from repro.sim.loop import Handle
from repro.sim.timers import PeriodicTimer, RestartableTimer


# ----------------------------------------------------------------------
# The world wrapper
# ----------------------------------------------------------------------
@dataclass
class World:
    """One prepared simulation plus the spec/seed that built it."""

    system: Any                 # Cluster or CRaftDeployment
    spec: Any                   # the ScenarioSpec it was built from
    seed: int
    ctx: Any = None             # RunContext kept from preparation

    @property
    def loop(self):
        return self.system.loop

    @property
    def network(self):
        return self.system.network

    @property
    def trace(self):
        return self.system.trace

    @property
    def servers(self) -> dict:
        return self.system.servers


# ----------------------------------------------------------------------
# Forking
# ----------------------------------------------------------------------
def fork_world(world: World) -> World:
    """Copy a world so events can fire in it without side effects on the
    original (see the module doc for why a plain deep copy suffices)."""
    return copy.deepcopy(world)


# ----------------------------------------------------------------------
# Event classification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EventInfo:
    """One pending event, described stably enough to match across forks
    (``seq`` is the loop's scheduling sequence number, identical in every
    fork of the same world) and readably enough for trace files."""

    when: float
    seq: int
    kind: str                   # "message" | "local" | "timer" | "task"
    actor: str                  # destination site / timer owner
    label: str
    src: str = ""               # message sender (message/local events)
    message_type: str = ""      # message class name (message/local events)

    def as_dict(self) -> dict:
        return {"when": self.when, "seq": self.seq, "kind": self.kind,
                "actor": self.actor, "label": self.label, "src": self.src,
                "message_type": self.message_type}


def describe_handle(handle: Handle) -> EventInfo:
    """Classify a pending loop handle by inspecting its callback."""
    callback = handle.callback
    owner = getattr(callback, "__self__", None)
    method = getattr(callback, "__name__", "")
    if isinstance(owner, Network) and method in ("_deliver",
                                                 "_deliver_colocated"):
        src, dst, message = handle.args
        kind = "message" if method == "_deliver" else "local"
        return EventInfo(handle.when, handle.seq, kind, dst,
                         f"{type(message).__name__} {src}->{dst}",
                         src=src, message_type=type(message).__name__)
    if isinstance(owner, (PeriodicTimer, RestartableTimer)):
        target = _unbind(owner._callback)[0]
        site = getattr(getattr(target, "__self__", None), "name", "") or ""
        what = getattr(target, "__name__", type(owner).__name__)
        return EventInfo(handle.when, handle.seq, "timer", str(site),
                         f"{type(owner).__name__}.{what}@{site or '?'}")
    site = getattr(owner, "name", "") or ""
    label = getattr(callback, "__qualname__", None) or repr(callback)
    return EventInfo(handle.when, handle.seq, "task", str(site),
                     f"{label}@{site or '?'}")


def _unbind(callback: Any) -> tuple[Any, tuple]:
    """A scheduled callback as (function, bound arguments): a bound method
    carries none, a ``functools.partial`` of one carries its ``args``."""
    if isinstance(callback, partial):
        return callback.func, callback.args
    return callback, ()


def branch_set(world: World) -> list[EventInfo]:
    """The explorable events at this state, in ``(when, seq)`` order."""
    return [describe_handle(h) for h in world.loop.pending_handles()]


def fire_event(world: World, event: EventInfo) -> None:
    """Fire the pending handle matching ``event`` (by sequence number)."""
    from repro.errors import ModelCheckError
    for handle in world.loop.pending_handles():
        if handle.seq == event.seq:
            world.loop.fire_handle(handle)
            return
    raise ModelCheckError(
        f"no pending handle with seq {event.seq} ({event.label!r}); "
        f"the world has diverged from the schedule")


# ----------------------------------------------------------------------
# Canonical projection + fingerprint
# ----------------------------------------------------------------------
def _canon(obj: Any) -> Any:
    """JSON-able canonical form with deterministic ordering."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return round(obj, 9)
    if isinstance(obj, enum.Enum):
        return obj.name
    if isinstance(obj, (bytes, bytearray)):
        return obj.hex()
    if isinstance(obj, dict):
        return {str(key): _canon(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((_canon(item) for item in obj), key=repr)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [type(obj).__name__,
                {f.name: _canon(getattr(obj, f.name))
                 for f in dataclasses.fields(obj)
                 if not is_size_memo(f)}]
    if callable(obj):
        # Scheduled work: which method, on which site, with what.
        func, args = _unbind(obj)
        owner = getattr(func, "__self__", None)
        return [getattr(func, "__qualname__", repr(func)),
                getattr(owner, "name", None), _canon(args)]
    return repr(obj)


def _capture_engine(engine: Any) -> dict:
    log = engine.log
    entries = []
    for index in range(log.first_retained_index, log.last_index + 1):
        entry = log.get(index)
        if entry is None:
            entries.append([index, None])
            continue
        entries.append([index, entry.term, entry.kind.name, entry.entry_id,
                       getattr(entry, "inserted_by", None).name
                       if getattr(entry, "inserted_by", None) else None])
    config = engine.configuration
    state = {
        "term": engine.current_term,
        "role": engine.role.name,
        "leader": engine.leader_id,
        "voted_for": getattr(engine, "voted_for", None),
        "commit": engine.commit_index,
        "members": list(config.members),
        "observers": list(getattr(config, "observers", ()) or ()),
        "log": entries,
    }
    evicted = getattr(engine, "_evicted", None)
    if evicted is not None:
        state["evicted"] = evicted
    recovering = getattr(engine, "_recovering", None)
    if recovering is not None:
        state["recovering"] = recovering
    last_leader = getattr(engine, "last_leader_index", None)
    if last_leader is not None:
        state["last_leader_index"] = last_leader
    # Volatile replication-tracking state drives commit decisions and
    # retransmissions, so it distinguishes states; beat counters drive
    # member timeouts. (Wall-clock *times* stay abstracted away.)
    for attr in ("match_index", "next_index", "_beats_missed"):
        value = getattr(engine, attr, None)
        if isinstance(value, dict):
            state[attr] = {key: value[key] for key in sorted(value)}
    return state


def capture_state(world: World) -> dict:
    """The consensus-relevant projection of a world (see module doc)."""
    servers = {}
    for name, server in sorted(world.servers.items()):
        if not server.alive:
            # A dead node's volatile state is gone; its future behaviour
            # is determined by stable storage, which the surviving log
            # projection plus the recovery event already pin down.
            servers[name] = {"alive": False}
            continue
        # A flat server runs one engine; a C-Raft server a local and a
        # global one, plus global inserts waiting behind the gate.
        record = {"alive": True}
        for level in ("engine", "local_engine", "global_engine"):
            engine = getattr(server, level, None)
            if engine is not None:
                record[level] = _capture_engine(engine)
        if hasattr(server, "_pending_gates"):
            record["gates"] = _canon(server._pending_gates)
            record["batches"] = sorted(server._outstanding_batches)
        servers[name] = record

    pending = []
    for handle in world.loop.pending_handles():
        info = describe_handle(handle)
        # A delivery carries (src, dst, message); a timer's handle runs
        # the timer, whose callback carries the data.
        args = (_unbind(handle.callback.__self__._callback)[1]
                if info.kind == "timer" else handle.args)
        pending.append([info.kind, info.label, _canon(args)])

    network = world.network
    projection = {
        "servers": servers,
        "pending": sorted(pending, key=repr),
        "disconnected": sorted(network._disconnected),
        "partition": _canon(network._partition_groups),
    }
    return projection


def fingerprint(world: World, state: dict | None = None) -> str:
    """Short stable digest of :func:`capture_state`'s projection."""
    if state is None:
        state = capture_state(world)
    blob = json.dumps(state, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
