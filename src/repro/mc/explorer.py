"""Bounded exploration of the simulation's state graph.

The explorer prepares a target world (normal deterministic schedule up
to the warmup point), then repeatedly: takes a node from the frontier,
enumerates its branch set (every deliverable message and firable timer),
forks the world once per branch, fires that one event in the fork, and
evaluates invariants on the resulting state.

Safety invariants reuse the post-run bundle from ``harness/checkers.py``
at *every* explored state; liveness probes (``mc/probes.py``) judge each
node against its ancestor path. A violated state's subtree is pruned --
its successors could only repeat the finding -- and every violation
carries its node id so the trace writer can export the exact violating
interleaving and a replayable schedule.

The frontier is a depth-first stack. Children are pushed so the
earliest-due event is explored first: the leftmost path is the one the
normal scheduler would have taken, and adversarial reorderings branch
off it. States are deduplicated by fingerprint (a consensus-relevant
projection; see ``mc/state.py``): an explored state whose fingerprint
matched an earlier node is recorded as a ``revisit`` edge and not
expanded again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvariantViolation, ReproError
from repro.harness.checkers import run_safety_checks
from repro.mc.probes import RecoveredRejoinProbe, make_probe
from repro.mc.state import (
    EventInfo,
    World,
    branch_set,
    capture_state,
    fingerprint,
    fire_event,
    fork_world,
)
from repro.scenarios.mc import McTarget, prepare_world


@dataclass(frozen=True)
class Violation:
    kind: str                   # "safety" | "liveness" | "error"
    probe: str
    message: str
    node_id: int
    depth: int

    def as_dict(self) -> dict:
        return {"kind": self.kind, "probe": self.probe,
                "message": self.message, "node_id": self.node_id,
                "depth": self.depth}


@dataclass
class McNode:
    """One explored state. ``world`` is dropped after expansion."""

    node_id: int
    parent_id: int | None
    depth: int
    fingerprint: str
    event: EventInfo | None     # the event that produced this state
    state: dict
    flags: dict = field(default_factory=dict)
    revisit_of: int | None = None
    world: World | None = None


@dataclass
class ExplorationReport:
    target: str
    depth_limit: int
    seed: int
    nodes: list[McNode]
    edges: list[tuple[int, int, str]]
    violations: list[Violation]
    visited: dict[str, int]     # fingerprint -> first node id
    truncated: bool

    @property
    def states_explored(self) -> int:
        return len(self.nodes)

    @property
    def transitions(self) -> int:
        return len(self.edges)

    @property
    def safety_violations(self) -> list[Violation]:
        return [v for v in self.violations if v.kind == "safety"]

    @property
    def liveness_violations(self) -> list[Violation]:
        return [v for v in self.violations if v.kind == "liveness"]

    def path_to(self, node_id: int) -> list[McNode]:
        """Nodes root..``node_id`` inclusive."""
        path = []
        current: int | None = node_id
        while current is not None:
            node = self.nodes[current]
            path.append(node)
            current = node.parent_id
        path.reverse()
        return path

    def summary(self) -> str:
        flavour = (f"{len(self.safety_violations)} safety / "
                   f"{len(self.liveness_violations)} liveness violations")
        extra = " [truncated]" if self.truncated else ""
        return (f"mc {self.target}: {self.states_explored} states, "
                f"{self.transitions} transitions, "
                f"{len(self.visited)} distinct, {flavour} "
                f"(dfs, depth {self.depth_limit}){extra}")


class Explorer:
    """Drives one bounded exploration of an :class:`McTarget`."""

    def __init__(self, target: McTarget, depth: int = 8,
                 max_states: int = 4000, max_branch: int | None = None,
                 safety: bool = True, probes: list | None = None) -> None:
        self.target = target
        self.depth_limit = depth
        self.max_states = max_states
        self.max_branch = max_branch
        self.safety = safety
        if probes is None:
            bound = target.liveness_bound if target.liveness_bound > 0 else 10
            probes = []
            if target.liveness_bound > 0:
                probes.append(RecoveredRejoinProbe(target.liveness_bound))
            have = {probe.name for probe in probes}
            for probe_name in getattr(target, "probes", ()):
                if probe_name not in have:
                    probes.append(make_probe(probe_name, bound))
                    have.add(probe_name)
        self.probes = probes

    # ------------------------------------------------------------------
    def run(self) -> ExplorationReport:
        world = prepare_world(self.target)
        root_state = capture_state(world)
        root = McNode(node_id=0, parent_id=None, depth=0,
                      fingerprint=fingerprint(world, root_state),
                      event=None, state=root_state, world=world)
        nodes = [root]
        edges: list[tuple[int, int, str]] = []
        violations: list[Violation] = []
        visited = {root.fingerprint: 0}
        truncated = False

        self._evaluate(root, [root], violations, world)
        stack = [root]

        while stack:
            node = stack.pop()
            if len(nodes) >= self.max_states:
                truncated = True
                break
            if node.depth >= self.depth_limit or node.world is None:
                continue
            children = self._expand(node, nodes, edges, violations, visited)
            node.world = None
            stack.extend(reversed(children))

        return ExplorationReport(
            target=self.target.name,
            depth_limit=self.depth_limit, seed=self.target.seed,
            nodes=nodes, edges=edges, violations=violations,
            visited=visited, truncated=truncated)

    # ------------------------------------------------------------------
    def _expand(self, node: McNode, nodes: list[McNode], edges: list,
                violations: list[Violation], visited: dict) -> list[McNode]:
        branch = branch_set(node.world)
        if self.max_branch is not None:
            branch = branch[:self.max_branch]
        children = []
        for event in branch:
            child_world = fork_world(node.world)
            child = McNode(node_id=len(nodes), parent_id=node.node_id,
                           depth=node.depth + 1, fingerprint="",
                           event=event, state={}, world=child_world)
            nodes.append(child)
            edges.append((node.node_id, child.node_id, event.label))
            try:
                fire_event(child_world, event)
            except ReproError as exc:
                # The model itself broke under this ordering -- a finding.
                violations.append(Violation(
                    kind="error", probe="fire_event",
                    message=f"{type(exc).__name__}: {exc}",
                    node_id=child.node_id, depth=child.depth))
                child.state = {"error": str(exc)}
                child.world = None
                continue
            child.state = capture_state(child_world)
            child.fingerprint = fingerprint(child_world, child.state)

            path = self._path(nodes, child)
            flagged = self._evaluate(child, path, violations, child_world)
            if flagged:
                child.world = None  # prune: successors only repeat it
                continue

            prior = visited.get(child.fingerprint)
            if prior is None:
                visited[child.fingerprint] = child.node_id
            else:
                child.revisit_of = prior
                child.world = None
                continue
            children.append(child)
        return children

    def _evaluate(self, node: McNode, path: list[McNode],
                  violations: list[Violation], world: World) -> bool:
        """Run invariants on one state; returns True if it violated."""
        flagged = False
        if self.safety:
            try:
                run_safety_checks(world.servers.values(), world.trace)
            except InvariantViolation as exc:
                violations.append(Violation(
                    kind="safety", probe="safety_checks",
                    message=str(exc), node_id=node.node_id,
                    depth=node.depth))
                flagged = True
        for probe in self.probes:
            node.flags[probe.name] = probe.state_flags(world)
            for found in probe.judge(node, path):
                violations.append(Violation(
                    kind="liveness", probe=found.probe,
                    message=found.message, node_id=node.node_id,
                    depth=node.depth))
                flagged = True
        return flagged

    @staticmethod
    def _path(nodes: list[McNode], node: McNode) -> list[McNode]:
        path = []
        current: McNode | None = node
        while current is not None:
            path.append(current)
            current = (nodes[current.parent_id]
                       if current.parent_id is not None else None)
        path.reverse()
        return path

