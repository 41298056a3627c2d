"""Tests for the network fabric."""

import random

import pytest

from repro.consensus.entry import EntryKind, InsertedBy, LogEntry
from repro.consensus.messages import (AppendEntries, AppendEntriesResponse,
                                      ClientRequest, Envelope, RequestVote,
                                      VoteEntry)
from repro.errors import NetworkError
from repro.net.latency import (BandwidthLatencyModel, ConstantLatency,
                               RegionLatencyModel, UniformLatency)
from repro.net.loss import BernoulliLoss, LossModel, NoLoss
from repro.net.network import Network
from repro.net.sizes import payload_size
from repro.net.stats import NetworkStats
from repro.sim.actor import Actor
from repro.sim.loop import SimLoop
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from tests.conftest import LinkLoss


class Sink(Actor):
    def __init__(self, loop, name):
        super().__init__(loop, name)
        self.received = []

    def on_message(self, message, sender):
        self.received.append((self.now(), message, sender))


def make_net(loss=None, delay=0.01):
    loop = SimLoop()
    net = Network(loop, RngRegistry(0), ConstantLatency(delay), loss)
    actors = {}
    for name in ("a", "b", "c"):
        actor = Sink(loop, name)
        net.register(actor)
        actors[name] = actor
    return loop, net, actors


class TestDelivery:
    def test_unicast_delivers_after_latency(self):
        loop, net, actors = make_net()
        net.send("a", "b", "hello")
        loop.run_until(0.005)
        assert actors["b"].received == []
        loop.run_until(0.02)
        assert actors["b"].received == [(0.01, "hello", "a")]

    def test_send_local_is_immediate_and_lossless(self):
        loop, net, actors = make_net(loss=BernoulliLoss(1.0))
        net.send_local("a", "b", "direct")
        loop.run_until(0.001)
        assert len(actors["b"].received) == 1

    def test_unknown_destination_is_dead_letter(self):
        loop, net, actors = make_net()
        net.send("a", "ghost", "boo")
        loop.run_until(1.0)
        assert net.stats.dead_letter == 1

    def test_dead_actor_counts_dead_letter(self):
        loop, net, actors = make_net()
        actors["b"].kill()
        net.send("a", "b", "hi")
        loop.run_until(1.0)
        assert actors["b"].received == []
        assert net.stats.dead_letter == 1

    def test_duplicate_registration_rejected(self):
        loop, net, actors = make_net()
        with pytest.raises(NetworkError):
            net.register(Sink(loop, "a"))


class TestLoss:
    def test_full_loss_drops_everything(self):
        loop, net, actors = make_net(loss=BernoulliLoss(1.0))
        for _ in range(10):
            net.send("a", "b", "x")
        loop.run_until(1.0)
        assert actors["b"].received == []
        assert net.stats.dropped == 10

    def test_loss_statistics(self):
        loop, net, actors = make_net(loss=BernoulliLoss(0.2))
        for _ in range(2000):
            net.send("a", "b", "x")
        loop.run_until(1.0)
        assert net.stats.dropped / net.stats.sent == pytest.approx(
            0.2, abs=0.03)

    def test_set_loss_mid_run(self):
        loop, net, actors = make_net()
        net.send("a", "b", "1")
        loop.run_until(0.02)
        net.set_loss(BernoulliLoss(1.0))
        net.send("a", "b", "2")
        loop.run_until(0.05)
        assert len(actors["b"].received) == 1


class TestDisconnect:
    def test_disconnected_receives_nothing(self):
        loop, net, actors = make_net()
        net.disconnect("b")
        net.send("a", "b", "x")
        loop.run_until(1.0)
        assert actors["b"].received == []
        assert net.stats.blocked == 1

    def test_disconnected_sends_nothing(self):
        loop, net, actors = make_net()
        net.disconnect("b")
        net.send("b", "a", "x")
        loop.run_until(1.0)
        assert actors["a"].received == []

    def test_reconnect_restores(self):
        loop, net, actors = make_net()
        net.disconnect("b")
        net.reconnect("b")
        net.send("a", "b", "x")
        loop.run_until(1.0)
        assert len(actors["b"].received) == 1

    def test_in_flight_message_cut_by_disconnect(self):
        loop, net, actors = make_net(delay=0.1)
        net.send("a", "b", "x")
        loop.run_until(0.05)
        net.disconnect("b")
        loop.run_until(1.0)
        assert actors["b"].received == []


class TestPartition:
    def test_cross_group_blocked(self):
        loop, net, actors = make_net()
        net.partition([["a", "b"], ["c"]])
        net.send("a", "b", "in-group")
        net.send("a", "c", "cross")
        loop.run_until(1.0)
        assert len(actors["b"].received) == 1
        assert actors["c"].received == []

    def test_unlisted_node_is_isolated(self):
        loop, net, actors = make_net()
        net.partition([["a"]])
        net.send("a", "b", "x")
        loop.run_until(1.0)
        assert actors["b"].received == []

    def test_heal_partition(self):
        loop, net, actors = make_net()
        net.partition([["a"], ["b"]])
        net.heal_partition()
        net.send("a", "b", "x")
        loop.run_until(1.0)
        assert len(actors["b"].received) == 1

    def test_node_in_two_groups_rejected(self):
        loop, net, actors = make_net()
        with pytest.raises(NetworkError):
            net.partition([["a", "b"], ["b", "c"]])


class TestStats:
    def test_by_type_counting(self):
        loop, net, actors = make_net()
        net.send("a", "b", "text")
        net.send("a", "b", 42)
        loop.run_until(1.0)
        assert net.stats.by_type["str"] == 1
        assert net.stats.by_type["int"] == 1
        assert net.stats.delivered == 2


# ----------------------------------------------------------------------
# Fabric parity matrix
# ----------------------------------------------------------------------
# The fabric's hot paths skip work (NoLoss and ConstantLatency are never
# called, counters are bumped inline, the size-aware flag is cached).
# None of that may be observable: a scripted trace through the real
# fabric must reproduce a reference that does everything the slow way,
# in the order the Network class documents.

class WindowLoss(LossModel):
    """``base`` outside the ``(start, end, model)`` windows; inside, the
    first window holding the send time decides (a time-varying model:
    the fabric must hand it the send instant)."""

    def __init__(self, base, windows):
        self.base, self.windows = base, windows

    def should_drop(self, rng, src, dst, now):
        for start, end, model in self.windows:
            if start <= now < end:
                return model.should_drop(rng, src, dst, now)
        return self.base.should_drop(rng, src, dst, now)


NODES = ("a", "b", "c", "d")
REGIONS = {"a": "east", "b": "east", "c": "west", "d": "west",
           "ghost": "west"}  # a departed site: addressable, unregistered
N_OPS = 2000
#: Sends are 0.5 ms apart on a grid no delivery time can land on.
STEP, OFFSET = 0.0005, 0.00013

LATENCY_MODELS = {
    "constant": lambda: ConstantLatency(0.01037),
    "uniform": lambda: UniformLatency(0.002, 0.03),
    "region": lambda: RegionLatencyModel(
        REGIONS, {("east", "west"): 0.04}, intra_rtt=0.002, jitter=0.2),
    "bandwidth": lambda: BandwidthLatencyModel(
        UniformLatency(0.002, 0.03), bandwidth=40_000),
}
LOSS_MODELS = {
    "none": lambda: NoLoss(),
    "bernoulli": lambda: BernoulliLoss(0.15),
    "per_link": lambda: LinkLoss({("a", "c"): 0.6, ("b", "a"): 0.0},
                                 base=BernoulliLoss(0.1)),
    "scheduled": lambda: WindowLoss(
        BernoulliLoss(0.05), [(0.2, 0.35, BernoulliLoss(1.0)),
                              (0.6, 0.7, NoLoss())]),
}


def entry(i):
    return LogEntry(f"n0:r{i}", EntryKind.DATA,
                    {"op": "put", "key": f"k{i}", "value": "v" * (i % 50)},
                    "n0", 1 + i % 3, InsertedBy.SELF)


def script():
    """The scripted trace: ``(kind, args)`` per op, from a fixed seed."""
    rng = random.Random(7)
    shared = AppendEntries(2, "a", 0, 0, ((1, entry(1)), (2, entry(2))), 0)
    ops = []
    for i in range(N_OPS):
        if i in FAULTS:
            ops.append(FAULTS[i])
            continue
        src = rng.choice(NODES)
        dst = rng.choice(NODES + ("ghost",))
        message = rng.choice([
            f"text-{i}", i, shared,
            AppendEntriesResponse(2, True, src, i, i),
            VoteEntry(2, i, entry(i), i - 1, src),
            ClientRequest(f"r{i}", {"op": "put", "key": "k", "value": i}),
            Envelope("global", "global", RequestVote(3, src, i, 2)),
        ])
        roll = rng.random()
        if roll < 0.05:
            ops.append(("send_local", (src, dst, message)))
        elif roll < 0.10:
            ops.append(("broadcast", (src, list(NODES), message,
                                      rng.random() < 0.5)))
        elif roll < 0.20:
            ops.append(("enveloped", (src, dst, "local", "c1", message)))
        else:
            ops.append(("send", (src, dst, message)))
    return ops


#: Faults and model swaps, by op index. ``swap_latency`` crosses the
#: size-aware boundary whichever side the cell started on.
FAULTS = {
    300: ("partition", ([["a", "b"], ["c", "d"]],)),
    500: ("heal_partition", ()),
    700: ("disconnect", ("c",)),
    850: ("reconnect", ("c",)),
    1000: ("swap_loss", ()),
    1200: ("partition", ([["a", "c", "d"]],)),
    1300: ("swap_latency", ()),
    1400: ("heal_partition", ()),
    1600: ("kill", ("d",)),
    1800: ("restore_models", ()),
}


class ReferenceFabric:
    """The documented semantics, nothing skipped: every remote send
    that is not blocked asks the loss model, then the latency model."""

    def __init__(self, seed, latency, loss):
        rng = RngRegistry(seed)
        self.latency_rng = rng.stream("net.latency")
        self.loss_rng = rng.stream("net.loss")
        self.latency, self.loss = latency, loss
        self.stats = NetworkStats()
        self.disconnected, self.groups, self.dead = set(), None, set()
        self.in_flight = []          # (when, seq, src, dst, message, remote)
        self.received = {name: [] for name in NODES}
        self.drops = []

    def blocked(self, src, dst):
        if src in self.disconnected or dst in self.disconnected:
            return True
        if self.groups is None:
            return False
        return (src not in self.groups or dst not in self.groups
                or self.groups[src] != self.groups[dst])

    def send(self, now, src, dst, message, local=False):
        name = type(message).__name__
        self.stats.sent += 1
        self.stats.by_type[name] += 1
        seq = self.stats.sent
        if local or src == dst:
            self.in_flight.append((now, seq, src, dst, message, False))
            return
        size = 0
        if self.latency.size_aware:
            size = payload_size(message)
            self.stats.bytes_sent += size
        if self.blocked(src, dst):
            self.stats.blocked += 1
            return
        if self.loss.should_drop(self.loss_rng, src, dst, now):
            self.stats.dropped += 1
            self.drops.append((now, src, dst, name))
            return
        if self.latency.size_aware:
            delay = self.latency.transfer_delay(self.latency_rng, src, dst,
                                                size)
        else:
            delay = self.latency.sample(self.latency_rng, src, dst)
        self.in_flight.append((now + delay, seq, src, dst, message, True))

    def advance(self, until):
        due = sorted((m for m in self.in_flight if m[0] <= until),
                     key=lambda m: m[:2])
        self.in_flight = [m for m in self.in_flight if m[0] > until]
        for when, _, src, dst, message, remote in due:
            if remote and self.blocked(src, dst):
                self.stats.blocked += 1
            elif dst not in self.received or dst in self.dead:
                self.stats.dead_letter += 1
            else:
                self.stats.delivered += 1
                self.received[dst].append((when, message, src))


@pytest.mark.parametrize("loss_name", LOSS_MODELS)
@pytest.mark.parametrize("latency_name", LATENCY_MODELS)
def test_fabric_parity_matrix(latency_name, loss_name):
    def models():
        other = (UniformLatency(0.001, 0.02)
                 if LATENCY_MODELS[latency_name]().size_aware else
                 BandwidthLatencyModel(ConstantLatency(0.00731), 25_000))
        return {"latency": LATENCY_MODELS[latency_name](),
                "loss": LOSS_MODELS[loss_name](),
                "other_latency": other, "other_loss": BernoulliLoss(0.3)}

    real, ref = models(), models()
    loop = SimLoop()
    registry = RngRegistry(11)
    trace = TraceRecorder()
    net = Network(loop, registry, real["latency"], real["loss"], trace)
    actors = {name: Sink(loop, name) for name in NODES}
    for actor in actors.values():
        net.register(actor)
    fabric = ReferenceFabric(11, ref["latency"], ref["loss"])

    for i, (kind, args) in enumerate(script()):
        now = OFFSET + i * STEP
        loop.run_until(now)
        fabric.advance(now)
        if kind == "send":
            net.send(*args)
            fabric.send(now, *args)
        elif kind == "send_local":
            net.send_local(*args)
            fabric.send(now, *args, local=True)
        elif kind == "broadcast":
            src, dsts, message, include_self = args
            for dst in dsts:
                if include_self or dst != src:
                    net.send(src, dst, message)
                    fabric.send(now, src, dst, message)
        elif kind == "enveloped":
            src, dst, level, scope, inner = args
            net.send(src, dst, Envelope(level, scope, inner))
            fabric.send(now, src, dst, Envelope(level, scope, inner))
        elif kind == "partition":
            net.partition(*args)
            fabric.groups = {name: index
                             for index, group in enumerate(args[0])
                             for name in group}
        elif kind == "heal_partition":
            net.heal_partition()
            fabric.groups = None
        elif kind == "disconnect":
            net.disconnect(*args)
            fabric.disconnected.add(*args)
        elif kind == "reconnect":
            net.reconnect(*args)
            fabric.disconnected.discard(*args)
        elif kind == "kill":
            actors[args[0]].kill()
            fabric.dead.add(args[0])
        elif kind == "swap_loss":
            net.set_loss(real["other_loss"])
            fabric.loss = ref["other_loss"]
        elif kind == "swap_latency":
            net.set_latency(real["other_latency"])
            fabric.latency = ref["other_latency"]
        elif kind == "restore_models":
            net.set_loss(real["loss"])
            net.set_latency(real["latency"])
            fabric.loss, fabric.latency = ref["loss"], ref["latency"]
    loop.run_until(10.0)
    fabric.advance(10.0)

    # Delays and delivery decisions, per destination.
    for name in NODES:
        assert actors[name].received == fabric.received[name]
    # Drop decisions.
    assert [(e.time, e.node, e.payload["dst"], e.payload["type"])
            for e in trace.events if e.category == "net.drop"] == fabric.drops
    # Every counter, bytes charged for blocked and dropped sends included.
    assert net.stats == fabric.stats
    assert net.stats.by_type["Envelope"]
    assert net.stats.sent == (net.stats.delivered + net.stats.dropped
                              + net.stats.blocked + net.stats.dead_letter)
    # Both RNG streams were drawn from in the same order, equally often.
    assert (registry.stream("net.latency").getstate()
            == fabric.latency_rng.getstate())
    assert (registry.stream("net.loss").getstate()
            == fabric.loss_rng.getstate())
