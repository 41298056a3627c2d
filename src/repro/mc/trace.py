"""Trace export: the explored graph and replayable violation schedules.

An exploration writes one directory:

- ``nodes.jsonl`` -- one explored state per line: id, parent, depth,
  fingerprint, the event that produced it, and the canonical state
  projection (the same structure the fingerprint hashes).
- ``edges.jsonl`` -- one transition per line: ``from``, ``to``, label.
- ``messages.jsonl`` -- the message-delivery transitions only (src, dst,
  message type), the quickest file to read when reconstructing a
  protocol exchange.
- ``violations.json`` -- every violation with its node id, depth, and
  the schedule file that replays it.
- ``schedule_<n>.json`` -- a minimal replay schedule per violation: the
  target name/seed plus the ``(when, seq)`` sequence of fired events
  from the exploration root to the violating state. ``mc/replay.py``
  re-drives it through a freshly prepared world on the normal
  :class:`~repro.sim.loop.SimLoop`.
- ``report.json`` -- run parameters and totals.

Files are deterministic for a deterministic report: line order follows
node/edge ids, and JSON keys are sorted.
"""

from __future__ import annotations

import json
import pathlib

from repro.mc.explorer import ExplorationReport

#: Replay schedules written per export; violations past the cap keep
#: their manifest entries (node id + depth are enough to re-derive a
#: schedule from nodes.jsonl) but no schedule file.
MAX_SCHEDULES = 25


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)


def schedule_for(report: ExplorationReport, node_id: int) -> dict:
    """The minimal replay schedule reaching ``node_id``."""
    path = report.path_to(node_id)
    return {
        "target": report.target,
        "seed": report.seed,
        "depth_limit": report.depth_limit,
        "node_id": node_id,
        "final_fingerprint": path[-1].fingerprint,
        "path": [node.event.as_dict() for node in path
                 if node.event is not None],
    }


def export_report(report: ExplorationReport, directory) -> pathlib.Path:
    """Write the full trace set; returns the directory written."""
    out = pathlib.Path(directory)
    out.mkdir(parents=True, exist_ok=True)

    # Full state projections are large; keep them only where they are
    # read back -- the root and the violating states. Other nodes keep
    # their fingerprint (enough to diff paths and spot merges).
    keep_state = {0} | {v.node_id for v in report.violations}
    with (out / "nodes.jsonl").open("w", encoding="utf-8") as stream:
        for node in report.nodes:
            stream.write(_dump({
                "id": node.node_id, "parent": node.parent_id,
                "depth": node.depth, "fingerprint": node.fingerprint,
                "revisit_of": node.revisit_of,
                "event": node.event.as_dict() if node.event else None,
                "state": node.state if node.node_id in keep_state
                else None}) + "\n")

    with (out / "edges.jsonl").open("w", encoding="utf-8") as stream:
        for src, dst, label in report.edges:
            stream.write(_dump({"from": src, "to": dst,
                                "label": label}) + "\n")

    with (out / "messages.jsonl").open("w", encoding="utf-8") as stream:
        for node in report.nodes:
            event = node.event
            if event is None or event.kind not in ("message", "local"):
                continue
            stream.write(_dump({
                "from": node.parent_id, "to": node.node_id,
                "src": event.src, "dst": event.actor,
                "type": event.message_type, "when": event.when}) + "\n")

    manifest = []
    for index, violation in enumerate(report.violations):
        entry = violation.as_dict()
        if (index < MAX_SCHEDULES
                and report.nodes[violation.node_id].fingerprint):
            name = f"schedule_{index}.json"
            schedule = schedule_for(report, violation.node_id)
            (out / name).write_text(
                json.dumps(schedule, sort_keys=True, indent=2) + "\n",
                encoding="utf-8")
            entry["schedule"] = name
        manifest.append(entry)
    (out / "violations.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")

    (out / "report.json").write_text(json.dumps({
        "target": report.target, "seed": report.seed,
        "depth_limit": report.depth_limit,
        "states_explored": report.states_explored,
        "transitions": report.transitions,
        "distinct_states": len(report.visited),
        "violations": len(report.violations),
        "truncated": report.truncated,
    }, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return out
