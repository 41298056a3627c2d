"""Safety-invariant checkers.

Mechanical verifications of the paper's Section II properties and the
internal invariants its proofs rely on. Experiments and tests call
:func:`run_safety_checks` after every run; property-based tests call the
individual checkers on randomized fault schedules.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.consensus.engine import BaseEngine
from repro.consensus.entry import InsertedBy
from repro.consensus.server import ConsensusServer
from repro.errors import InvariantViolation
from repro.sim.trace import TraceRecorder
from repro.smr.applied import out_of_order


def check_committed_prefix_agreement(engines: Iterable[BaseEngine]) -> None:
    """Safety (Definition 2.1): no two sites commit different entries at
    the same index. Compacted prefixes hold no entries to compare, so the
    check covers the retained overlap of each pair."""
    engines = list(engines)
    for i, a in enumerate(engines):
        for b in engines[i + 1:]:
            upto = min(a.commit_index, b.commit_index)
            start = max(a.log.first_retained_index,
                        b.log.first_retained_index)
            for index in range(start, upto + 1):
                entry_a, entry_b = a.log.get(index), b.log.get(index)
                if entry_a is None or entry_b is None:
                    raise InvariantViolation(
                        f"committed hole at index {index}: "
                        f"{a.name}={entry_a!r} {b.name}={entry_b!r}")
                if entry_a.entry_id != entry_b.entry_id:
                    raise InvariantViolation(
                        f"safety violation at index {index}: "
                        f"{a.name} committed {entry_a.entry_id!r}, "
                        f"{b.name} committed {entry_b.entry_id!r}")


def check_log_matching(engines: Iterable[BaseEngine]) -> None:
    """Leader-approved entries with the same (index, term) hold the same
    value (classic Raft's Log Matching, restricted to leader-approved
    entries for Fast Raft, whose self-approved slots are tentative)."""
    engines = list(engines)
    for i, a in enumerate(engines):
        for b in engines[i + 1:]:
            hi = min(a.log.last_index, b.log.last_index)
            for index in range(1, hi + 1):
                entry_a, entry_b = a.log.get(index), b.log.get(index)
                if entry_a is None or entry_b is None:
                    continue
                if (entry_a.inserted_by is not InsertedBy.LEADER
                        or entry_b.inserted_by is not InsertedBy.LEADER):
                    continue
                if (entry_a.term == entry_b.term
                        and entry_a.entry_id != entry_b.entry_id):
                    raise InvariantViolation(
                        f"log matching violation at index {index} term "
                        f"{entry_a.term}: {a.name}={entry_a.entry_id!r} "
                        f"{b.name}={entry_b.entry_id!r}")


def check_election_safety(trace: TraceRecorder) -> None:
    """At most one leader per (protocol, scope, term)."""
    leaders: dict[tuple, set[str]] = defaultdict(set)
    for event in trace.select_prefix(""):
        if not event.category.endswith("role.leader"):
            continue
        key = (event.category, event.payload.get("scope", "main"),
               event.payload.get("term"))
        leaders[key].add(event.node)
        if len(leaders[key]) > 1:
            raise InvariantViolation(
                f"two leaders for {key!r}: {sorted(leaders[key])}")


def check_applied_consistency(servers: Iterable[ConsensusServer]) -> None:
    """Every site applies entries in strictly increasing index order, and
    no two sites apply different entries at the same index. (Sites that
    resumed from a snapshot start applying mid-stream, so sequences are
    compared per index rather than as whole-list prefixes.)

    Real servers of both kinds already enforce contiguity at append: an
    apply that does not extend the site's
    :class:`~repro.smr.applied.AppliedLog` by one raises
    :func:`~repro.smr.applied.out_of_order`, the violation this checker
    gives. The checks below hold for any iterable of ``(index, entry)``
    pairs."""
    owners: dict[int, tuple[str, str]] = {}
    for server in servers:
        name = getattr(server, "name", "<server>")
        history = server.applied_log
        # Applies resume exactly one above the last snapshot *restore*
        # (the history's floor), not whatever snapshot the node happens
        # to hold at check time -- a later self-taken snapshot must not
        # retroactively legitimize a skipped prefix. A plain list of
        # pairs has no floor: its first index anchors it, unchecked.
        floor = getattr(history, "floor", None)
        count = 0
        for index, entry in history:
            if floor is None:
                floor = index - 1
            if index != floor + count + 1:
                raise out_of_order(name, index, floor, count)
            count += 1
            claimed = owners.get(index)
            if claimed is None:
                owners[index] = (entry.entry_id, name)
            elif claimed[0] != entry.entry_id:
                raise InvariantViolation(
                    f"applied divergence at index {index}: "
                    f"{claimed[1]} applied {claimed[0]!r}, "
                    f"{name} applied {entry.entry_id!r}")


def check_images_agree(points: Iterable[tuple[int, object, str]],
                       what: str = "state machines") -> None:
    """Generic agreement oracle: any two ``(point, image, name)`` tuples
    sharing a point must hold equal images (deterministic machines at the
    same apply point cannot legitimately differ)."""
    by_point: dict[int, tuple[object, str]] = {}
    for point, image, name in points:
        seen = by_point.get(point)
        if seen is None:
            by_point[point] = (image, name)
        elif seen[0] != image:
            raise InvariantViolation(
                f"{what} diverge at apply point {point}: "
                f"{seen[1]} vs {name}")


def check_state_machine_agreement(servers: Iterable[ConsensusServer]) -> None:
    """Sites whose machines cover the same commit point hold identical
    state -- the end-to-end guard that snapshot install/restore introduces
    no divergence (deterministic machines + per-index agreement imply it,
    but this checks the composed artifact directly)."""
    check_images_agree(
        (server.engine.commit_index, server.state_machine.snapshot(),
         server.name)
        for server in servers if server.state_machine is not None)


def check_leader_approved_prefix(engine: BaseEngine) -> None:
    """A Fast Raft *leader*'s log is contiguous leader-approved up to its
    last leader-approved index (the decision procedure decides in order).
    Compacted indices held committed -- hence decided -- entries, so the
    check starts at the first retained index."""
    last_leader = engine.log.last_with_provenance(InsertedBy.LEADER)
    for index in range(engine.log.first_retained_index, last_leader + 1):
        entry = engine.log.get(index)
        if entry is None or entry.inserted_by is not InsertedBy.LEADER:
            raise InvariantViolation(
                f"{engine.name}: non-leader-approved slot {index} below "
                f"lastLeaderIndex {last_leader}: {entry!r}")


def check_commit_monotonic(commit_history: dict[str, list[int]]) -> None:
    """commitIndex never regresses at a live site (between crashes)."""
    for name, history in commit_history.items():
        for before, after in zip(history, history[1:]):
            if after < before:
                raise InvariantViolation(
                    f"{name}: commitIndex regressed {before} -> {after}")


def run_safety_checks(servers: Iterable[ConsensusServer],
                      trace: TraceRecorder | None = None) -> None:
    """The standard post-run bundle."""
    servers = list(servers)
    engines = [s.engine for s in servers]
    check_committed_prefix_agreement(engines)
    check_log_matching(engines)
    check_applied_consistency(servers)
    check_state_machine_agreement(servers)
    if trace is not None:
        check_election_safety(trace)
