"""Tests for Actor lifecycle and the trace recorder."""

from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.actor import Actor
from repro.sim.loop import SimLoop
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder


class Echo(Actor):
    def __init__(self, loop, name):
        super().__init__(loop, name)
        self.received = []

    def on_message(self, message, sender):
        self.received.append((message, sender))


def deliver(actor, message, sender):
    """Hand ``message`` to ``actor`` through a fabric, as a site would."""
    network = Network(actor.loop, RngRegistry(0), ConstantLatency(0.0))
    network.register(actor)
    network.send_local(sender, actor.name, message)
    actor.loop.run_until(actor.loop.now() + 0.001)


class TestActor:
    def test_deliver_reaches_handler(self):
        actor = Echo(SimLoop(), "a")
        deliver(actor, "hello", "b")
        assert actor.received == [("hello", "b")]

    def test_dead_actor_drops_messages(self):
        actor = Echo(SimLoop(), "a")
        actor.kill()
        deliver(actor, "hello", "b")
        assert actor.received == []
        assert not actor.alive

    def test_revive_resumes_delivery(self):
        actor = Echo(SimLoop(), "a")
        actor.kill()
        actor.revive()
        deliver(actor, "hi", "b")
        assert actor.received == [("hi", "b")]

    def test_now_tracks_loop(self):
        loop = SimLoop()
        actor = Echo(loop, "a")
        loop.run_until(2.5)
        assert actor.now() == 2.5


class TestTraceRecorder:
    def test_record_and_select(self):
        trace = TraceRecorder()
        trace.record(1.0, "n1", "commit", index=1)
        trace.record(2.0, "n2", "commit", index=2)
        trace.record(3.0, "n1", "role.leader", term=1)
        assert len(trace) == 3
        commits = trace.select(category="commit")
        assert [e.node for e in commits] == ["n1", "n2"]
        n1 = trace.select(node="n1")
        assert len(n1) == 2

    def test_select_with_predicate(self):
        trace = TraceRecorder()
        trace.record(1.0, "n1", "commit", index=1)
        trace.record(2.0, "n1", "commit", index=5)
        big = trace.select(category="commit",
                           predicate=lambda e: e.payload["index"] > 2)
        assert len(big) == 1

    def test_select_prefix(self):
        trace = TraceRecorder()
        trace.record(1.0, "n1", "raft.role.leader")
        trace.record(2.0, "n1", "raft.commit")
        trace.record(3.0, "n1", "net.drop")
        assert len(trace.select_prefix("raft.")) == 2

    def test_disabled_recording(self):
        trace = TraceRecorder(enabled=False)
        trace.record(1.0, "n1", "commit")
        assert len(trace) == 0

    def test_iteration_order(self):
        trace = TraceRecorder()
        for i in range(5):
            trace.record(float(i), "n", "tick", i=i)
        assert [e.payload["i"] for e in trace.events] == list(range(5))
