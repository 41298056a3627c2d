"""Fault injection: the failure vocabulary of the paper's evaluation.

- **crash / recover** -- a site stops and later restarts from stable
  storage (Section II's crash-recovery model).
- **silent leave** -- a site vanishes without a leave request (Fig. 4);
  implemented as a network disconnect so the process state still exists
  but nothing gets in or out.
- **announced leave / join** -- membership churn through the protocol's
  own request messages.
- **network swaps** -- replacing the loss / latency model mid-run (the
  paper's ``tc`` changes) and partition installs/heals.

Faults are applied immediately, or -- the declarative path -- described
as :class:`repro.scenarios.spec.Event` records that the scenario runner
schedules, resolves and fires, so experiments do not hand-script
injection code.
"""

from __future__ import annotations

from repro.consensus.messages import JoinRequest, LeaveRequest
from repro.errors import ExperimentError
from repro.harness.builder import Cluster
from repro.net.loss import BernoulliLoss, NoLoss


def resolve_event_targets(event, server_order: list[str],
                          initial_leader: str | None,
                          topology=None,
                          current_leader: str | None = None) -> list[str]:
    """Resolve an :class:`~repro.scenarios.spec.Event` target selector.

    ``server_order`` is the site list the positional selectors index
    into (server insertion order for a flat cluster, cluster members for
    a C-Raft cluster-scoped event). ``leader`` always means the *initial*
    leader (the documented spec semantics); ``nonleader:<i>`` resolves at
    fire time against ``current_leader`` (falling back to the initial
    one) and pins the index to the sorted site ids -- leadership may have
    moved between schedule evaluation and application, and without the
    fire-time resolution the selector could silently crash the live
    leader, turning a follower fault into a leader fault.
    """
    target = event.target
    if not target:
        return []
    if target == "leader":
        if initial_leader is None:
            raise ExperimentError("event targets 'leader' but no leader "
                                  "was recorded")
        return [initial_leader]
    if target.startswith("nonleader:"):
        leader = current_leader if current_leader is not None \
            else initial_leader
        if leader is None:
            raise ExperimentError(
                f"event targets {target!r} but no leader was recorded -- "
                f"the selector could silently hit the leader")
        index = int(target.split(":", 1)[1])
        others = sorted(n for n in server_order if n != leader)
        if index >= len(others):
            raise ExperimentError(f"no such non-leader: {target!r}")
        return [others[index]]
    if target.startswith("cluster:"):
        if topology is None:
            raise ExperimentError(
                f"event targets {target!r} but the scenario has no "
                f"cluster topology")
        return topology.nodes_in_cluster(target.split(":", 1)[1])
    return [target]


class FaultInjector:
    """Applies faults to a :class:`Cluster` (or C-Raft deployment --
    anything with ``servers`` / ``network`` / ``loop`` / ``trace``)."""

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster
        #: (time, kind, site) tuples, for experiment reports.
        self.injected: list[tuple[float, str, str]] = []

    def _record(self, kind: str, site: str) -> None:
        now = self._cluster.loop.now()
        self.injected.append((now, kind, site))
        self._cluster.trace.record(now, site, f"fault.{kind}")

    def _server(self, site: str):
        try:
            return self._cluster.servers[site]
        except KeyError:
            raise ExperimentError(f"unknown site: {site!r}") from None

    # ------------------------------------------------------------------
    # Immediate faults
    # ------------------------------------------------------------------
    def crash(self, site: str) -> None:
        """Stop a site; volatile state is lost, stable storage kept."""
        self._server(site).crash()
        self._record("crash", site)

    def recover(self, site: str) -> None:
        """Restart a crashed site from its stable storage. Recovering a
        site that is still alive is rejected: it would silently rebuild
        the engine mid-operation (dropping volatile state the cluster
        still counts on) instead of modelling a crash-recovery."""
        server = self._server(site)
        if server.alive:
            raise ExperimentError(
                f"cannot recover {site!r}: the site is alive (crash it "
                f"first; recover models a restart from stable storage)")
        server.recover()
        self._record("recover", site)

    def silent_leave(self, site: str) -> None:
        """The site leaves without telling anyone (Fig. 4's red line)."""
        self._cluster.network.disconnect(site)
        self._record("silent_leave", site)

    def silent_return(self, site: str) -> None:
        """Reconnect a silently departed site (it must rejoin via the
        membership protocol to vote again)."""
        self._cluster.network.reconnect(site)
        self._record("silent_return", site)

    def announced_leave(self, site: str) -> None:
        """The site sends a leave request to the members."""
        server = self._server(site)
        members = server.engine.configuration.members
        for member in members:
            if member != site:
                self._cluster.network.send(site, member,
                                           LeaveRequest(site=site))
        self._record("announced_leave", site)

    def request_join(self, site: str, contact: str,
                     replaces: str | None = None) -> None:
        """A site asks ``contact`` to admit it to the configuration.
        ``replaces`` is the seat hint from the membership protocol: the
        member whose place this joiner takes, so a scheduled join can
        count toward that member's pending-exclusion quorum (see
        :class:`~repro.consensus.messages.JoinRequest`)."""
        self._cluster.network.send(site, contact,
                                   JoinRequest(site=site, replaces=replaces))
        self._record("join_request", site)

    def partition(self, groups: list[list[str]]) -> None:
        self._cluster.network.partition(groups)
        self._record("partition", "+".join(",".join(g) for g in groups))

    def heal_partition(self) -> None:
        self._cluster.network.heal_partition()
        self._record("heal", "*")

    def set_loss(self, rate: float) -> None:
        """Swap the network-wide loss model (the paper's ``tc`` change)."""
        self._cluster.network.set_loss(
            BernoulliLoss(rate) if rate else NoLoss())
        self._record("set_loss", f"{rate:g}")

    def set_latency(self, model) -> None:
        """Swap the latency model mid-run (e.g. a degraded WAN phase)."""
        self._cluster.network.set_latency(model)
        self._record("set_latency", repr(model))

    # ------------------------------------------------------------------
    # Declarative events (repro.scenarios.spec.Event)
    # ------------------------------------------------------------------
    def apply_event(self, event, *, server_order: list[str] | None = None,
                    initial_leader: str | None = None,
                    topology=None) -> list[str]:
        """Fire one scenario event now; returns the resolved sites."""
        order = (server_order if server_order is not None
                 else list(self._cluster.servers))
        if event.action == "partition":
            self.partition([list(group) for group in event.args[0]])
            return []
        if event.action == "heal_partition":
            self.heal_partition()
            return []
        if event.action == "set_loss":
            self.set_loss(event.args[0])
            return []
        if event.action == "set_latency":
            model = event.args[0].build(topology)
            if model is None:
                from repro.harness.builder import DEFAULT_LATENCY
                model = DEFAULT_LATENCY
            self.set_latency(model)
            return []
        sites = resolve_event_targets(event, order, initial_leader,
                                      topology=topology,
                                      current_leader=self._current_leader())
        for site in sites:
            if event.action == "request_join":
                replaces = event.args[1] if len(event.args) > 1 else None
                self.request_join(site, contact=event.args[0],
                                  replaces=replaces)
            else:
                getattr(self, event.action)(site)
        return sites

    def _current_leader(self) -> str | None:
        """The live leader at fire time, if the system can name one (a
        flat Cluster can; a C-Raft deployment has one per level, so
        positional selectors there fall back to the recorded initial
        leader)."""
        getter = getattr(self._cluster, "leader", None)
        return getter() if callable(getter) else None
