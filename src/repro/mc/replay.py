"""Replay an exported violation schedule through the normal SimLoop.

A schedule (``mc/trace.py``) is the ``(when, seq)`` sequence of events
the explorer fired from the exploration root to a violating state. The
simulation is deterministic per ``(spec, seed)``: preparing the target
again yields a world whose pending events carry the *same* sequence
numbers, so replay is exact -- find the handle with the recorded seq,
fire it, repeat. The final fingerprint must match the exploration's; a
mismatch means the code under test changed since the trace was written.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from repro.errors import ModelCheckError
from repro.mc.state import World, fingerprint
from repro.scenarios.mc import get_mc_target, prepare_world


@dataclass
class ReplayResult:
    schedule: dict
    world: World                # the reproduced violating state, live
    fingerprint: str
    matched: bool               # fingerprint equals the schedule's

    def summary(self) -> str:
        verdict = ("reproduced" if self.matched
                   else "DIVERGED from the recorded fingerprint")
        return (f"replay {self.schedule['target']}: "
                f"{len(self.schedule['path'])} steps, {verdict} "
                f"({self.fingerprint})")


def replay_schedule(schedule: dict) -> ReplayResult:
    """Re-drive one schedule; returns the final (violating) world."""
    target = get_mc_target(schedule["target"])
    if schedule.get("seed", target.seed) != target.seed:
        raise ModelCheckError(
            f"schedule was recorded at seed {schedule['seed']} but target "
            f"{target.name!r} is registered at seed {target.seed}")
    world = prepare_world(target)
    loop = world.loop
    for index, step in enumerate(schedule["path"]):
        handle = next((h for h in loop.pending_handles()
                       if h.seq == step["seq"]), None)
        if handle is None:
            raise ModelCheckError(
                f"replay step {index}: no pending handle with seq "
                f"{step['seq']} ({step.get('label', '?')!r}) -- the world "
                f"has diverged from the recorded schedule")
        loop.fire_handle(handle)
    final = fingerprint(world)
    return ReplayResult(schedule=schedule, world=world, fingerprint=final,
                        matched=final == schedule["final_fingerprint"])


def replay_file(path) -> ReplayResult:
    """Replay a ``schedule_<n>.json`` written by the trace exporter."""
    schedule = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    return replay_schedule(schedule)
