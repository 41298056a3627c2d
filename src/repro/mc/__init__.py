"""Bounded model checking over the deterministic simulation core.

The sim is deterministic per seed, which makes every reachable state a
function of the event *order* alone -- so the checker treats one prepared
simulation as an explorable state graph: at each state the branch set is
every deliverable message and firable timer; firing one in a forked world
yields a successor. ``Explorer`` walks that graph depth-first under a
depth bound, re-running the safety-invariant
bundle at every state and judging liveness probes along each path;
failed paths export node/edge/message traces plus a replayable schedule.

See the README's "Model checking" section for CLI usage.
"""

from repro.mc.explorer import (
    ExplorationReport,
    Explorer,
    McNode,
    Violation,
)
from repro.mc.probes import RecoveredRejoinProbe
from repro.mc.replay import ReplayResult, replay_file, replay_schedule
from repro.mc.state import (
    World,
    branch_set,
    capture_state,
    describe_handle,
    fingerprint,
    fire_event,
    fork_world,
)
from repro.mc.trace import export_report, schedule_for

__all__ = [
    "ExplorationReport", "Explorer", "McNode", "Violation",
    "RecoveredRejoinProbe",
    "ReplayResult", "replay_file", "replay_schedule",
    "World", "branch_set", "capture_state", "describe_handle",
    "fingerprint", "fire_event", "fork_world",
    "export_report", "schedule_for",
]
