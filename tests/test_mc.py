"""Model-checking subsystem battery.

Four guarantees are pinned here:

1. **Loop hooks** -- ``pending_handles``/``fire_handle`` expose the
   scheduler's branch set and fire one chosen event without disturbing
   the rest of the queue.
2. **Fork isolation** -- driving a forked world never mutates its
   parent (the scheduled-closure deep copy actually severs the worlds).
3. **Determinism** -- the same target and depth produce
   identical visited-state fingerprints and byte-identical exported
   traces, and an exported schedule replays to the recorded state.
4. **The recovery liveness edge** -- the probe-before-trust handshake
   keeps ``mc_evicted_while_down`` violation-free (ROADMAP item 4,
   fixed), the ``_noprobe`` variant still reproduces the pre-fix silent
   window (so the violation export and schedule replay machinery stay
   exercised), and the recovery x eviction-timing battery explores the
   handshake itself from in-flight roots. The extra liveness probes
   (leader stability, commit progress) ride the same targets.
"""

import dataclasses
import enum
import gc
import hashlib
import json
import types

import pytest

from repro.errors import ModelCheckError, SimulationError
from repro.mc import (
    Explorer,
    branch_set,
    export_report,
    fingerprint,
    fire_event,
    fork_world,
    replay_file,
)
from repro.mc.probes import (
    CommitProgressProbe,
    LeaderStabilityProbe,
    RecoveredRejoinProbe,
    make_probe,
)
from repro.scenarios.mc import get_mc_target, mc_target_names, prepare_world
from repro.sim.loop import SimLoop


def explore(target, **kwargs):
    return Explorer(target, **kwargs).run()


# ----------------------------------------------------------------------
# 1. Loop hooks
# ----------------------------------------------------------------------
class TestLoopHooks:
    def test_pending_handles_sorted_by_due_time(self):
        loop = SimLoop()
        for delay in (0.3, 0.1, 0.2):
            loop.call_later(delay, lambda: None)
        assert [h.when for h in loop.pending_handles()] == [0.1, 0.2, 0.3]

    def test_cancelled_handles_are_not_pending(self):
        loop = SimLoop()
        keep = loop.call_later(0.1, lambda: None)
        drop = loop.call_later(0.2, lambda: None)
        drop.cancel()
        assert loop.pending_handles() == [keep]

    def test_fire_handle_runs_callback_and_advances_clock(self):
        loop = SimLoop()
        seen = []
        loop.call_later(0.5, lambda: seen.append(loop.now()))
        loop.fire_handle(loop.pending_handles()[0])
        assert seen == [0.5]
        assert loop.now() == 0.5
        assert not loop.pending_handles()

    def test_fire_handle_out_of_order(self):
        # Firing a later-due event first is the whole point: the clock
        # jumps forward and the earlier event stays firable.
        loop = SimLoop()
        seen = []
        loop.call_later(0.1, lambda: seen.append("early"))
        loop.call_later(0.9, lambda: seen.append("late"))
        loop.fire_handle(loop.pending_handles()[-1])
        assert seen == ["late"] and loop.now() == 0.9
        loop.fire_handle(loop.pending_handles()[0])
        assert seen == ["late", "early"]
        assert loop.now() == 0.9  # never runs backwards

    def test_fire_handle_rejects_cancelled(self):
        loop = SimLoop()
        handle = loop.call_later(0.1, lambda: None)
        handle.cancel()
        with pytest.raises(SimulationError):
            loop.fire_handle(handle)


# ----------------------------------------------------------------------
# 2. Fork isolation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def healthy_target():
    return get_mc_target("mc_small_healthy")


@pytest.fixture(scope="module")
def evicted_target():
    return get_mc_target("mc_evicted_while_down")


def test_branch_set_is_nonempty_and_sorted(healthy_target):
    world = prepare_world(healthy_target)
    events = branch_set(world)
    assert events
    assert events == sorted(events, key=lambda e: (e.when, e.seq))


def test_fork_is_isolated(healthy_target):
    world = prepare_world(healthy_target)
    base = fingerprint(world)
    base_seqs = [h.seq for h in world.loop.pending_handles()]
    fork = fork_world(world)
    for _ in range(5):
        fire_event(fork, branch_set(fork)[0])
    # The fork moved; the parent did not.
    assert fork.loop.now() > world.loop.now()
    assert fingerprint(world) == base
    assert [h.seq for h in world.loop.pending_handles()] == base_seqs


def _reachable(root):
    """Every object the world's own state reaches: instances, their
    attributes and slots, containers, bound methods, closure cells and
    defaults -- not classes, modules or function globals (code, shared
    by construction)."""
    seen, work = {}, [root]
    while work:
        obj = work.pop()
        if id(obj) in seen or isinstance(obj, (
                type, types.ModuleType, str, bytes, int, float, enum.Enum,
                type(None))):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, types.BuiltinFunctionType):
            continue  # recorded; its __self__ is what the caller judges
        if isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    work.append(cell.cell_contents)
                except ValueError:  # empty cell
                    pass
            work.extend(obj.__defaults__ or ())
            work.extend((obj.__kwdefaults__ or {}).values())
        else:
            work.extend(gc.get_referents(obj))
    return seen


@pytest.mark.parametrize("name", ["mc_small_healthy", "mc_small_classic"])
def test_fork_holds_no_bound_builtin_of_its_parent(name):
    """``copy.deepcopy`` rebinds a bound *Python* method to the copied
    instance but copies a bound *builtin* atomically: an instance that
    cached, say, ``self._slots.get`` would read its parent's dict from
    inside the fork. (Actors and engines do cache ``loop.now`` -- a
    Python method, checked here to land on the fork's loop.)"""
    world = prepare_world(get_mc_target(name))
    fork = fork_world(world)
    parent_ids = _reachable(world)  # keeps the parent's objects alive
    mutable_parent_ids = {
        key for key, obj in parent_ids.items()
        if not isinstance(obj, (tuple, frozenset, types.BuiltinFunctionType))}
    leaked = [obj for obj in _reachable(fork).values()
              if isinstance(obj, types.BuiltinFunctionType)
              and id(getattr(obj, "__self__", None)) in mutable_parent_ids]
    assert leaked == []
    assert fork.loop is not world.loop
    for server in fork.servers.values():
        assert server.now.__self__ is fork.loop
        assert server.engine.now.__self__ is fork.loop
        assert server.engine.log is not world.servers[server.name].engine.log


def test_fire_event_rejects_divergence(healthy_target):
    world = prepare_world(healthy_target)
    event = branch_set(world)[0]
    stale = dataclasses.replace(event, seq=10 ** 9)
    with pytest.raises(ModelCheckError):
        fire_event(world, stale)


# ----------------------------------------------------------------------
# 3. Determinism
# ----------------------------------------------------------------------
def _export_digest(report, directory) -> str:
    out = export_report(report, directory)
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_exploration_is_deterministic(healthy_target, tmp_path):
    runs = [explore(healthy_target, depth=4, max_states=120)
            for _ in range(2)]
    assert sorted(runs[0].visited) == sorted(runs[1].visited)
    assert (_export_digest(runs[0], tmp_path / "a")
            == _export_digest(runs[1], tmp_path / "b"))


def test_registry_lists_targets():
    names = mc_target_names()
    for required in ("mc_small_healthy", "mc_small_classic",
                     "mc_evicted_while_down",
                     "mc_evicted_while_down_noprobe",
                     "mc_recover_before_eviction",
                     "mc_recover_at_eviction",
                     "mc_recover_after_eviction", "mc_fig3_fast"):
        assert required in names
    with pytest.raises(ModelCheckError):
        get_mc_target("mc_no_such_target")


# ----------------------------------------------------------------------
# 4. The recovery liveness edge (ROADMAP item 4, fixed)
# ----------------------------------------------------------------------
DEPTH = 12


@pytest.fixture(scope="module")
def evicted_report(evicted_target):
    return explore(evicted_target, depth=DEPTH,
                   max_states=150)


@pytest.fixture(scope="module")
def noprobe_report():
    return explore(get_mc_target("mc_evicted_while_down_noprobe"),
                   depth=DEPTH, max_states=150)


def test_evicted_while_down_recovery_is_live(evicted_report):
    """ROADMAP item 4 fixed (was a strict xfail): the probe-before-trust
    handshake detects the stale restored configuration and routes the
    site straight onto the rejoin path -- the exploration starts with
    the recovery probes in flight and reorders them adversarially."""
    assert not evicted_report.liveness_violations
    assert not evicted_report.safety_violations


def test_explorer_flags_evicted_while_down_without_probe(noprobe_report):
    """With the handshake disabled the pre-fix silent window is back:
    the recovered site trusts its stale configuration and idles."""
    assert noprobe_report.liveness_violations
    assert not noprobe_report.safety_violations
    flagged = {v.probe for v in noprobe_report.liveness_violations}
    assert flagged == {"recovered_rejoin"}


def test_replay_reproduces_flagged_state(noprobe_report, tmp_path):
    out = export_report(noprobe_report, tmp_path / "trace")
    manifest = json.loads((out / "violations.json").read_text())
    name = next(entry["schedule"] for entry in manifest
                if "schedule" in entry)
    result = replay_file(out / name)
    assert result.matched
    # The reproduced world really is the stuck state the probe flagged.
    assert RecoveredRejoinProbe(bound=1).state_flags(result.world)


def test_healthy_cluster_is_clean_at_same_depth(healthy_target):
    report = explore(healthy_target, depth=DEPTH,
                     max_states=150)
    assert not report.violations


@pytest.mark.parametrize("name", ["mc_recover_before_eviction",
                                  "mc_recover_at_eviction",
                                  "mc_recover_after_eviction"])
def test_recovery_timing_battery_is_clean(name):
    """The eviction-timing battery: recovery before / racing / just
    after the member timeout, each explored from a root where the
    handshake is still in flight. Every ordering must stay live."""
    report = explore(get_mc_target(name), depth=DEPTH,
                     max_states=150)
    assert not report.violations


# ----------------------------------------------------------------------
# 5. The extra liveness probes (leader stability, commit progress)
# ----------------------------------------------------------------------
class _Node:
    def __init__(self, depth, flags, fp):
        self.depth = depth
        self.flags = flags
        self.fingerprint = fp


def test_probe_registry_resolves_and_rejects():
    for name, cls in (("recovered_rejoin", RecoveredRejoinProbe),
                      ("leader_stability", LeaderStabilityProbe),
                      ("commit_progress", CommitProgressProbe)):
        assert isinstance(make_probe(name, 5), cls)
    with pytest.raises(ModelCheckError):
        make_probe("quantum_oracle", 5)


def test_extra_probes_ride_registered_targets():
    target = get_mc_target("mc_small_healthy")
    assert "leader_stability" in target.probes
    assert "commit_progress" in target.probes


def test_leader_stability_flags_only_terminal_leaderlessness(healthy_target):
    world = prepare_world(healthy_target)
    probe = LeaderStabilityProbe(5)
    # A healthy warmed-up world has a leader: no flag.
    assert not probe.state_flags(world)


def test_commit_progress_judges_lasso_only():
    """An adversarial but finite ordering can stall commits legitimately,
    so the step bound must not apply -- only a closed cycle flags."""
    probe = CommitProgressProbe(3)
    flags = {"commit_progress": frozenset({"n0:5"})}
    deep = [_Node(d, flags, f"fp{d}") for d in range(6)]
    assert not probe.judge(deep[-1], deep)        # past bound, no cycle
    cycle = [_Node(0, flags, "same"), _Node(1, flags, "mid"),
             _Node(2, flags, "same")]
    verdict = probe.judge(cycle[-1], cycle)
    assert [v.reason for v in verdict] == ["lasso"]


def test_leader_stability_step_bound_applies():
    probe = LeaderStabilityProbe(3)
    flags = {"leader_stability": frozenset({"cluster"})}
    path = [_Node(d, flags, f"fp{d}") for d in range(4)]
    verdict = probe.judge(path[-1], path)
    assert [v.reason for v in verdict] == ["step_bound"]
