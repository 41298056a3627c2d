"""The network fabric: registration, unicast, partitions.

Semantics mirror UDP over the paper's testbed:

- no delivery guarantee (loss model),
- no ordering guarantee (each message samples its own latency, so a later
  message can overtake an earlier one),
- no duplication (the models here never duplicate; duplication resilience
  is still exercised by client retries).

Silent leaves and crashes are modelled by :meth:`disconnect` or by killing
the receiving actor; either way traffic to/from the site stops without any
notification to peers -- exactly what the protocols must detect.
"""

from __future__ import annotations

from typing import Any

from repro.errors import NetworkError
from repro.net.latency import LatencyModel
from repro.net.loss import LossModel, NoLoss
from repro.net.sizes import payload_size
from repro.net.stats import NetworkStats
from repro.sim.actor import Actor
from repro.sim.loop import SimLoop
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder


class Network:
    """Delivers messages between registered actors through the sim loop.

    ``send`` is one of the hottest functions of the whole simulation
    (every consensus message crosses it, C-Raft's as an ``Envelope``),
    so the trivial cases are precomputed instead of re-discovered per
    message: a :class:`NoLoss` model is never consulted (it draws no
    randomness, so skipping the call is observably identical), and the
    partition/disconnect check collapses to one flag test while no fault
    is installed. With one installed, the disconnected set is tested
    inline and :meth:`_partitioned_apart` is called only while a
    partition is up. The flags are selected from what the fabric can
    observe about its models and refresh whenever a model is swapped or
    a fault installed.

    The send and deliver paths bump :class:`NetworkStats` counters
    inline, and deliveries check ``actor.alive`` and call
    :meth:`Actor.on_message` directly.

    Model call order (what the RNG streams depend on): a remote send
    that is not blocked asks ``should_drop`` on the ``net.loss`` stream
    first and, only if kept, ``transfer_delay`` (size-aware model) or
    ``sample`` on the ``net.latency`` stream. Loopback, blocked and
    dropped sends draw no latency; loopback and blocked sends draw
    nothing at all. A size-aware model's bytes are charged to the stats
    before the blocked and loss checks.
    """

    def __init__(self, loop: SimLoop, rng: RngRegistry,
                 latency: LatencyModel, loss: LossModel | None = None,
                 trace: TraceRecorder | None = None) -> None:
        self._loop = loop
        self._latency_rng = rng.stream("net.latency")
        self._loss_rng = rng.stream("net.loss")
        self._latency = latency
        self._loss = loss if loss is not None else NoLoss()
        self._trace = trace
        self._actors: dict[str, Actor] = {}
        self._disconnected: set[str] = set()
        self._partition_groups: dict[str, int] | None = None
        self.stats = NetworkStats()
        self._refresh_model_flags()
        self._refresh_fault_flag()

    def _refresh_model_flags(self) -> None:
        """Recompute the trivial-model flags (see class doc)."""
        self._size_aware = self._latency.size_aware
        self._no_loss = type(self._loss) is NoLoss

    def _refresh_fault_flag(self) -> None:
        self._faults_installed = (bool(self._disconnected)
                                  or self._partition_groups is not None)

    # ------------------------------------------------------------------
    # Membership of the fabric
    # ------------------------------------------------------------------
    def register(self, actor: Actor) -> None:
        """Attach an actor; its :attr:`Actor.name` becomes its address."""
        if actor.name in self._actors:
            raise NetworkError(f"address already registered: {actor.name!r}")
        self._actors[actor.name] = actor

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def disconnect(self, name: str) -> None:
        """Silently cut a site off: nothing in, nothing out."""
        self._disconnected.add(name)
        self._refresh_fault_flag()

    def reconnect(self, name: str) -> None:
        self._disconnected.discard(name)
        self._refresh_fault_flag()

    def is_disconnected(self, name: str) -> bool:
        return name in self._disconnected

    def partition(self, groups: list[list[str]]) -> None:
        """Install a partition: only same-group pairs can communicate.

        Addresses not listed in any group are unreachable from everyone.
        """
        mapping: dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                if name in mapping:
                    raise NetworkError(
                        f"{name!r} appears in multiple partition groups")
                mapping[name] = index
        self._partition_groups = mapping
        self._refresh_fault_flag()

    def heal_partition(self) -> None:
        self._partition_groups = None
        self._refresh_fault_flag()

    def set_loss(self, loss: LossModel) -> None:
        """Swap the loss model mid-run (the paper's ``tc`` changes)."""
        self._loss = loss
        self._refresh_model_flags()

    def set_latency(self, latency: LatencyModel) -> None:
        self._latency = latency
        self._refresh_model_flags()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, message: Any) -> None:
        """Unicast ``message``; delivery is scheduled on the sim loop.

        Sending to an unknown destination is allowed (counts as a dead
        letter at delivery time) because real systems can address departed
        sites. Self-addressed messages use the loopback path: immediate
        and lossless, exactly as ``tc``-shaped NIC traffic behaves on a
        real host (the paper's loss shaping never touches loopback).
        """
        type_name = message.__class__.__name__
        stats = self.stats
        stats.sent += 1
        stats.by_type[type_name] += 1
        if src == dst:
            self._loop.schedule(0.0, self._deliver_colocated, src, dst,
                                message)
            return
        size_aware = self._size_aware
        if size_aware:
            size = payload_size(message)
            stats.bytes_sent += size
        if self._faults_installed:
            disconnected = self._disconnected
            if (src in disconnected or dst in disconnected
                    or (self._partition_groups is not None
                        and self._partitioned_apart(src, dst))):
                stats.blocked += 1
                return
        # NoLoss draws no randomness, so skipping its call is identical.
        if not self._no_loss and self._loss.should_drop(
                self._loss_rng, src, dst, self._loop.now()):
            stats.dropped += 1
            if self._trace is not None:
                self._trace.record(self._loop.now(), src, "net.drop",
                                   dst=dst, type=type_name)
            return
        if size_aware:
            delay = self._latency.transfer_delay(self._latency_rng,
                                                 src, dst, size)
        else:
            delay = self._latency.sample(self._latency_rng, src, dst)
        self._loop.schedule(delay, self._deliver, src, dst, message)

    def send_local(self, src: str, dst: str, message: Any) -> None:
        """Reliable same-instant delivery (co-located client <-> site).

        Bypasses loss, latency, and partitions: the two endpoints share a
        box. A crashed destination still drops the message.
        """
        stats = self.stats
        stats.sent += 1
        stats.by_type[message.__class__.__name__] += 1
        self._loop.schedule(0.0, self._deliver_colocated, src, dst, message)

    def _deliver_colocated(self, src: str, dst: str, message: Any) -> None:
        stats = self.stats
        actor = self._actors.get(dst)
        if actor is None or not actor.alive:
            stats.dead_letter += 1
            return
        stats.delivered += 1
        actor.on_message(message, src)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _partitioned_apart(self, src: str, dst: str) -> bool:
        """True when the installed partition separates the two sites
        (a site in no group is cut off from everyone).

        ``send`` and ``_deliver`` test the disconnected set inline, so
        a run with a site silently away pays no call for it; this is
        asked only while a partition is installed."""
        groups = self._partition_groups
        src_group = groups.get(src)
        dst_group = groups.get(dst)
        return (src_group is None or dst_group is None
                or src_group != dst_group)

    def _deliver(self, src: str, dst: str, message: Any) -> None:
        # Re-check blockage at delivery time: a partition installed while
        # the message was in flight still cuts it off, matching how long
        # one-way WAN delays interact with sudden failures.
        stats = self.stats
        if self._faults_installed:
            disconnected = self._disconnected
            if (src in disconnected or dst in disconnected
                    or (self._partition_groups is not None
                        and self._partitioned_apart(src, dst))):
                stats.blocked += 1
                return
        actor = self._actors.get(dst)
        if actor is None or not actor.alive:
            stats.dead_letter += 1
            return
        stats.delivered += 1
        actor.on_message(message, src)
