"""Liveness probes: per-state predicates judged along explored paths.

Safety invariants (``harness/checkers.py``) are judged one state at a
time; liveness needs path context. A probe computes *flags* for every
explored state and then judges each node against the flags of its
ancestors. The explorer threads both calls.

All probes share one judgement (:class:`PathProbe`): a flag value that
has persisted continuously from the exploration root is a violation when
the path outruns the step bound, or when the path closes a cycle
(identical fingerprint upstream) -- a genuine lasso: the system can
repeat that loop forever without the flagged condition ever clearing.
The step bound is opt-out per probe: it is a fair expectation only where
*any* explored ordering should clear the flag within a bounded number of
steps (rejoin activity), not where an adversarial ordering can
legitimately stall progress for arbitrarily long finite prefixes
(commit progress -- only the lasso proves a forever-stall there).

:class:`RecoveredRejoinProbe` targets the ROADMAP's evicted-while-down
edge; :class:`LeaderStabilityProbe` and :class:`CommitProgressProbe` are
the "natural growth" probes from ROADMAP item 3, registered on targets
via :attr:`~repro.scenarios.mc.McTarget.probes`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consensus.engine import Role
from repro.errors import ModelCheckError
from repro.mc.state import describe_handle


@dataclass(frozen=True)
class LivenessViolation:
    probe: str
    site: str
    reason: str                 # "step_bound" | "lasso"
    message: str


class PathProbe:
    """Shared path judgement over per-state flags (see module doc)."""

    name = "path_probe"
    #: Whether outrunning the step bound (vs only a lasso) is a violation.
    uses_step_bound = True

    def __init__(self, bound: int = 10) -> None:
        if bound < 1:
            raise ValueError(f"bound must be >= 1: {bound!r}")
        self.bound = bound

    def state_flags(self, world) -> frozenset:
        """The flag values active at this state (empty = healthy)."""
        raise NotImplementedError

    def _message(self, flag: str, reason: str, node, ancestor) -> str:
        raise NotImplementedError

    def judge(self, node, path) -> list[LivenessViolation]:
        """``path`` is root..node inclusive (explorer nodes with
        ``.flags[self.name]``, ``.fingerprint``, ``.depth``)."""
        flagged = node.flags.get(self.name, frozenset())
        if not flagged:
            return []
        violations = []
        for flag in sorted(flagged):
            always = all(flag in n.flags.get(self.name, frozenset())
                         for n in path)
            if not always:
                continue
            if self.uses_step_bound and node.depth >= self.bound:
                violations.append(LivenessViolation(
                    probe=self.name, site=flag, reason="step_bound",
                    message=self._message(flag, "step_bound", node, None)))
                continue
            for ancestor in path[:-1]:
                if ancestor.fingerprint == node.fingerprint:
                    violations.append(LivenessViolation(
                        probe=self.name, site=flag, reason="lasso",
                        message=self._message(flag, "lasso", node, ancestor)))
                    break
        return violations


class RecoveredRejoinProbe(PathProbe):
    """A recovered member must rejoin within ``bound`` explored steps.

    The per-state predicate marks a site "stuck" when it is alive,
    excluded from the live leader's governing configuration, still
    believes it is a member, has not learned of its eviction, and has no
    join request *or recovery probe traffic* in flight -- i.e. nothing it
    has done or scheduled moves it toward rejoining.
    """

    name = "recovered_rejoin"

    def state_flags(self, world) -> frozenset:
        """The set of sites stuck outside the configuration at this state."""
        servers = world.servers
        leader = None
        best_term = -1
        for server in servers.values():
            if not server.alive:
                continue
            engine = server.engine
            if engine.role is Role.LEADER and engine.current_term > best_term:
                leader, best_term = server, engine.current_term
        if leader is None:
            return frozenset()
        governing = set(leader.engine.configuration.members)

        joining = set()
        for handle in world.loop.pending_handles():
            args = handle.args
            if len(args) != 3:
                continue
            kind = type(args[2]).__name__
            if kind in ("JoinRequest", "RecoveryProbe"):
                # Both carry the moving site's name (a forwarded join's
                # sender is the forwarder, not the joiner).
                joining.add(args[2].site)
            elif kind == "RecoveryProbeReply":
                joining.add(args[1])          # the probing destination

        stuck = set()
        for name, server in servers.items():
            if not server.alive or name in governing or name in joining:
                continue
            engine = server.engine
            config = getattr(engine, "configuration", None)
            if config is None or name not in set(config.members):
                continue                      # knows it is out
            if getattr(engine, "_evicted", False):
                continue                      # eviction learned: will rejoin
            observers = set(getattr(config, "observers", ()) or ())
            observers |= set(
                getattr(leader.engine.configuration, "observers", ()) or ())
            if (name in observers
                    and not getattr(engine, "wants_membership", False)):
                continue                      # standing observer by design
            stuck.add(name)
        return frozenset(stuck)

    def _message(self, flag: str, reason: str, node, ancestor) -> str:
        if reason == "step_bound":
            return (f"{flag} recovered outside the governing "
                    f"configuration and made no move to rejoin "
                    f"for {node.depth} explored steps "
                    f"(bound {self.bound})")
        return (f"{flag} is stuck outside the governing "
                f"configuration around a state cycle "
                f"(depth {ancestor.depth} -> {node.depth})"
                f": the run can repeat it forever "
                f"without {flag} rejoining")


class LeaderStabilityProbe(PathProbe):
    """The cluster must never be *terminally* leaderless: no alive
    leader, no candidate campaigning, no election message in flight, and
    no election timer armed on any alive site. A transient leaderless
    window (normal election) never flags -- some timer or vote is always
    pending there; a flagged state has nothing scheduled that could ever
    produce a leader again."""

    name = "leader_stability"

    def state_flags(self, world) -> frozenset:
        alive = False
        for server in world.servers.values():
            if not server.alive:
                continue
            alive = True
            role = server.engine.role
            if role is Role.LEADER or role is Role.CANDIDATE:
                return frozenset()
        if not alive:
            return frozenset()
        for handle in world.loop.pending_handles():
            info = describe_handle(handle)
            if info.message_type in ("RequestVote", "RequestVoteResponse"):
                return frozenset()
            if info.kind == "timer" and "_on_election_timeout" in info.label:
                return frozenset()
        return frozenset({"cluster"})

    def _message(self, flag: str, reason: str, node, ancestor) -> str:
        if reason == "step_bound":
            return (f"the cluster stayed leaderless with no candidate, "
                    f"no election message in flight, and no election "
                    f"timer armed for {node.depth} explored steps "
                    f"(bound {self.bound})")
        return (f"the cluster is leaderless around a state cycle "
                f"(depth {ancestor.depth} -> {node.depth}) with no "
                f"pending event that could elect one")


class CommitProgressProbe(PathProbe):
    """An alive leader holding uncommitted entries must eventually
    advance its commit index. The flag carries the frozen commit point
    (``leader:index``), so any commit advance clears it; only a closed
    cycle proves a forever-stall (an adversarial but finite ordering can
    legitimately delay quorum acknowledgements, so the step bound does
    not apply -- see the module doc)."""

    name = "commit_progress"
    uses_step_bound = False

    def state_flags(self, world) -> frozenset:
        flags = set()
        for server in world.servers.values():
            if not server.alive:
                continue
            engine = server.engine
            if (engine.role is Role.LEADER
                    and engine.log.last_index > engine.commit_index):
                flags.add(f"{server.name}:{engine.commit_index}")
        return frozenset(flags)

    def _message(self, flag: str, reason: str, node, ancestor) -> str:
        leader, _, commit = flag.rpartition(":")
        return (f"leader {leader} holds uncommitted entries with its "
                f"commit index frozen at {commit} around a state cycle "
                f"(depth {ancestor.depth} -> {node.depth}): the run can "
                f"repeat it forever without committing")


#: Probe factories addressable from :attr:`McTarget.probes` by name.
PROBE_FACTORIES: dict[str, type[PathProbe]] = {
    RecoveredRejoinProbe.name: RecoveredRejoinProbe,
    LeaderStabilityProbe.name: LeaderStabilityProbe,
    CommitProgressProbe.name: CommitProgressProbe,
}


def make_probe(name: str, bound: int) -> PathProbe:
    """Instantiate a registered probe by name (for McTarget.probes)."""
    try:
        factory = PROBE_FACTORIES[name]
    except KeyError:
        raise ModelCheckError(
            f"unknown liveness probe {name!r} "
            f"(registered: {sorted(PROBE_FACTORIES)})") from None
    return factory(bound)
