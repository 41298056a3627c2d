"""The correctness gate every trial (timed and traced) must pass.

Checks outputs from outside the program: the repo's own safety oracles,
then what a client could observe -- every acknowledged write applied
exactly once at every live site, none lost across crash/recover, and
every read inside the version range linearizability allows.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import InvariantViolation
from repro.harness.checkers import (check_committed_prefix_agreement,
                                    check_election_safety,
                                    check_images_agree, run_safety_checks)

from benchmarks.suite.load import parse_tokens
from benchmarks.suite.reduce import applied_point, state_of
from benchmarks.suite.workloads import (Trial, engines_by_scope,
                                        live_servers)


def check(trial: Trial, counters: dict[str, float],
          settled: bool = True) -> tuple[list[str], int]:
    """Returns ``(violations, acked writes lost)``; no violations =
    correct.

    An acked append that is absent from a live site after the drain, or
    applied after a later write of its session, is *counted* (it ends up
    in ``failed`` and ``smr.acked_lost``) rather than failing the gate:
    the seed code loses the occasional fast-committed entry when its
    leader crashes within a heartbeat (README, finding 5), and a gate that
    trips on a known defect gates nothing else. ``settled=False`` is for overloaded ladder rungs, whose
    backlog is legitimately still draining when the run ends.
    """
    problems: list[str] = []
    lost: set[int] = set()
    ctx = trial.ctx
    system = ctx.system
    live = live_servers(system)
    craft = hasattr(live[0], "local_engine")
    trace = system.trace if system.trace.enabled else None
    try:
        if craft:
            # Committed-prefix agreement inside every voting group (each
            # cluster, and the global level) and global state-machine
            # agreement at equal apply points.
            for engines in engines_by_scope(system).values():
                check_committed_prefix_agreement(engines)
            check_images_agree(
                ((applied_point(s), state_of(s), s.name) for s in live),
                what="global state machines")
            if trace is not None:
                check_election_safety(trace)
        else:
            run_safety_checks(live, trace)
    except InvariantViolation as exc:
        problems.append(f"safety: {exc}")

    load = ctx.load
    writes = [r for r in load.requests if r.kind in ("put", "append")]
    acked = {r.version for r in writes if r.record.done}
    submitted = {r.version for r in writes}
    appends = any(r.kind == "append" for r in writes)
    if craft:
        # A C-Raft ack promises *local* commit; global application is
        # asynchronous (and a final partial batch waits for more entries
        # when no age flush is configured). So: the ack must be durable
        # in every live site of its cluster, and the global state must
        # hold nothing twice and nothing unknown. How much is still
        # unapplied is reported as craft.global_backlog_final.
        problems += _check_local_commit(system, live, writes)
        acked = set()
    for server in live:
        state = state_of(server)
        if appends:
            seen, late = _check_appends(server.name, state, submitted,
                                        problems)
            lost |= late
            if settled:
                lost |= acked - seen
        elif settled:
            for key, version in load.acked.items():
                value = state.get(key)
                if value != version and value != load.submitted[key]:
                    problems.append(
                        f"{server.name}: {key} holds {value!r}, newest "
                        f"acked put is {version}")
    for r in load.requests:
        if r.kind == "read" and r.record.done:
            value = r.record.result or 0
            if not r.floor <= value <= r.ceiling:
                problems.append(
                    f"read {r.record.request_id} of {r.key} returned "
                    f"{value}, allowed [{r.floor}, {r.ceiling}]")

    name = trial.workload.name
    if craft and counters["net.blocked"] <= 0:
        problems.append(f"{name}: the flapping uplink blocked nothing")
    if len(ctx.fired) != ctx.scheduled_faults:
        problems.append(f"{name}: {len(ctx.fired)} of "
                        f"{ctx.scheduled_faults} scheduled faults fired")
    if name == "wan_faults" and counters["snapshot.installed"] <= 0:
        problems.append("wan_faults: no snapshot was installed")
    return problems[:20], len(lost)


def _check_local_commit(system, live, writes) -> list[str]:
    problems = []
    for cluster in system.topology.clusters:
        members = [s for s in live if s.cluster == cluster]
        held = set.intersection(*(
            {entry.entry_id for _, entry in s.applied_log} for s in members))
        lost = [r for r in writes if r.record.done
                and system.topology.cluster_of(r.site) == cluster
                and r.record.request_id not in held]
        if lost:
            problems.append(
                f"{cluster}: {len(lost)} acked writes missing from a live "
                f"site's local log (e.g. {lost[0].record.request_id})")
    return problems


def _check_appends(site: str, state: dict, submitted: set[int],
                   problems: list[str]) -> tuple[set[int], set[int]]:
    """Exactly-once over the append-built state. Returns the versions
    this site applied, and those applied *after* a later write of the
    same session: a session never pipelines, so the earlier write had
    been acked while it was not durable -- the lost ack of finding 5,
    resurfacing."""
    seen: Counter = Counter()
    late: set[int] = set()
    for key, value in state.items():
        versions = parse_tokens(value)
        seen.update(versions)
        if key.startswith("s"):
            newest = 0
            for version in versions:
                if version < newest:
                    late.add(version)
                newest = max(newest, version)
    twice = [v for v, n in seen.items() if n > 1]
    if twice:
        problems.append(f"{site}: {len(twice)} writes applied more than "
                        f"once (e.g. version {twice[0]})")
    unknown = seen.keys() - submitted
    if unknown:
        problems.append(f"{site}: {len(unknown)} applied writes were never "
                        f"submitted")
    return set(seen), late
