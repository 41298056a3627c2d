"""``layer_micro``: each layer's public API in isolation, ns per operation.

No protocol runs here. Every loop does a fixed count of one operation
against a freshly built object and is timed ``REPEATS`` times, each time
between two passes of the host-speed reference (``calib.py``); the
reported figure is the median of the times at reference speed (on the
shared reference box not even the minimum of raw times is steady). The
point is ROADMAP 2(b): a change that helps a protocol
workload by making an isolated operation slower -- or the reverse --
shows up here, on the same layers used differently.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable

from repro.consensus.entry import EntryKind, InsertedBy, LogEntry
from repro.consensus.log import RaftLog
from repro.consensus.messages import ClientRequest
from repro.craft.batching import Batcher, BatchPolicy, ProposalCoalescer
from repro.metrics.summary import StreamingReservoir, summarize
from repro.net.latency import ConstantLatency, RegionLatencyModel
from repro.net.loss import BernoulliLoss
from repro.net.network import Network
from repro.net.sizes import payload_size
from repro.sim.actor import Actor
from repro.sim.loop import SimLoop
from repro.sim.rng import RngRegistry
from repro.sim.timers import RestartableTimer
from repro.smr.kv import KVCommand, KVStateMachine
from repro.smr.sessions import SessionTable
from repro.snapshot import (ChunkAssembler, Snapshot, chunk_offsets,
                            deserialize_snapshot, serialize_snapshot)
from repro.storage.stable import StableStore

from benchmarks.suite.calib import at_reference_speed, reference_pass

REPEATS = 5
N = 20_000
SMOKE_N = 500


class _Sink(Actor):
    def on_message(self, message, sender) -> None:
        pass


def _entry(i: int) -> LogEntry:
    return LogEntry(entry_id=f"s{i % 97}.{i}", kind=EntryKind.DATA,
                    payload=KVCommand.put(f"k{i % 512}", i), origin="n0",
                    term=1, inserted_by=InsertedBy.LEADER)


def _network(latency, loss=None) -> tuple[SimLoop, Network]:
    loop = SimLoop()
    network = Network(loop, RngRegistry(7), latency, loss)
    for name in ("a", "b"):
        network.register(_Sink(loop, name))
    return loop, network


# Each loop: ``fn(n) -> Callable[[], None]`` builds fresh state, returns
# the timed body; the body performs exactly ``n`` operations.
def sim_schedule_fire(n):
    loop = SimLoop()
    rng = random.Random(1)
    delays = [rng.random() for _ in range(n)]
    noop = lambda: None  # noqa: E731

    def body():
        for delay in delays:
            loop.call_later(delay, noop)
        loop.run_until_idle()
    return body


def sim_cancel(n):
    loop = SimLoop()
    noop = lambda: None  # noqa: E731

    def body():
        for handle in [loop.call_later(1.0, noop) for _ in range(n)]:
            handle.cancel()
        loop.run_until_idle()
    return body


def sim_timer_reset(n):
    timer = RestartableTimer(SimLoop(), lambda: None)

    def body():
        for _ in range(n):
            timer.reset(0.3)
    return body


def net_send(n):
    loop, network = _network(ConstantLatency(0.001))
    message = ClientRequest(request_id="r", command=KVCommand.put("k", 1))

    def body():
        for _ in range(n):
            network.send("a", "b", message)
        loop.run_until_idle()
    return body


def net_send_region_lossy(n):
    model = RegionLatencyModel({"a": "east", "b": "west"},
                               {("east", "west"): 0.080}, jitter=0.1)
    loop, network = _network(model, BernoulliLoss(0.02))
    message = ClientRequest(request_id="r", command=KVCommand.put("k", 1))

    def body():
        for _ in range(n):
            network.send("a", "b", message)
        loop.run_until_idle()
    return body


def net_payload_size(n):
    messages = [ClientRequest(request_id=f"r{i}",
                              command=KVCommand.put(f"k{i}", "v" * 64))
                for i in range(n)]

    def body():
        for message in messages:
            payload_size(message)
    return body


def storage_touch(n):
    store = StableStore("n0")
    store.set("log", [])

    def body():
        for _ in range(n):
            store.touch("log", 64)
    return body


def consensus_log_append(n):
    entries = [_entry(i) for i in range(n)]
    log = RaftLog()

    def body():
        for entry in entries:
            log.append(entry)
    return body


def consensus_log_slice(n):
    log = RaftLog()
    for i in range(1000):
        log.append(_entry(i))

    def body():
        for i in range(n):
            log.entries_between(1 + i % 900, 1 + i % 900 + 20)
    return body


def consensus_log_compact(n):
    log = RaftLog()
    for i in range(n):
        log.append(_entry(i))

    def body():
        for upto in range(100, n + 1, 100):
            log.compact_to(upto)
    return body


def craft_batcher_cycle(n):
    batcher = Batcher("east", BatchPolicy(batch_size=8, max_outstanding=2))
    entries = [_entry(i) for i in range(n)]

    def body():
        for index, entry in enumerate(entries, 1):
            if batcher.observe_and_check(index, entry, 0.0):
                payload = batcher.take_batch(0.0)
                batcher.advance_covered(payload.local_range[1])
                batcher.batch_done()
    return body


def craft_coalescer_cycle(n):
    coalescer = ProposalCoalescer(BatchPolicy(batch_size=8, max_age=0.005))
    message = ClientRequest(request_id="r", command=KVCommand.put("k", 1))
    ids = [f"s{i % 97}.{i}" for i in range(n)]

    def body():
        for request_id in ids:
            if coalescer.add(request_id, message, "c", 0.0):
                coalescer.drain()
    return body


def smr_session_observe(n):
    table = SessionTable()
    ids = [f"s{i % 2000}.{i // 2000 + 1}" for i in range(n)]

    def body():
        for index, entry_id in enumerate(ids):
            table.observe(entry_id, index)
    return body


def smr_session_is_duplicate(n):
    table = SessionTable()
    for i in range(2000):
        table.observe(f"s{i}.5", i)
    probes = [(f"s{i % 2000}", 4 + i % 3) for i in range(n)]

    def body():
        for session, sequence in probes:
            table.is_duplicate(session, sequence)
    return body


def smr_kv_apply(n):
    machine = KVStateMachine()
    commands = [KVCommand.put(f"k{i % 512}", i) for i in range(n)]

    def body():
        for command in commands:
            machine.apply(command)
    return body


def snapshot_chunk_roundtrip(n):
    """One operation = one 4 KiB chunk through serialize -> chunk ->
    assemble -> deserialize of a ~64 KiB image."""
    state = {f"k{i}": "v" * 100 for i in range(512)}
    snapshot = Snapshot(last_included_index=1000, last_included_term=3,
                        machine_state=state)
    per_image = len(chunk_offsets(len(serialize_snapshot(snapshot)), 4096))

    def body():
        for _ in range(max(1, n // per_image)):
            data = serialize_snapshot(snapshot)
            assembler = ChunkAssembler(1000, 3, 3, len(data))
            for offset, size in chunk_offsets(len(data), 4096):
                assembler.add(offset, data[offset:offset + size])
            deserialize_snapshot(assembler.assemble())
    body.ops = max(1, n // per_image) * per_image
    return body


def metrics_reservoir_add(n):
    reservoir = StreamingReservoir(4096, random.Random(3))
    rng = random.Random(4)
    values = [rng.random() for _ in range(n)]

    def body():
        for value in values:
            reservoir.add(value)
    return body


def metrics_summarize(n):
    rng = random.Random(5)
    values = [rng.random() for _ in range(n)]

    def body():
        summarize(values)
    return body


#: metric name -> loop builder, in layer order.
LOOPS: dict[str, Callable] = {
    "sim.schedule_fire_ns": sim_schedule_fire,
    "sim.cancel_ns": sim_cancel,
    "sim.timer_reset_ns": sim_timer_reset,
    "net.send_ns": net_send,
    "net.send_region_lossy_ns": net_send_region_lossy,
    "net.payload_size_ns": net_payload_size,
    "storage.touch_ns": storage_touch,
    "consensus.log_append_ns": consensus_log_append,
    "consensus.log_slice_ns": consensus_log_slice,
    "consensus.log_compact_ns": consensus_log_compact,
    "craft.batcher_cycle_ns": craft_batcher_cycle,
    "craft.coalescer_cycle_ns": craft_coalescer_cycle,
    "smr.session_observe_ns": smr_session_observe,
    "smr.session_is_duplicate_ns": smr_session_is_duplicate,
    "smr.kv_apply_ns": smr_kv_apply,
    "snapshot.chunk_roundtrip_ns": snapshot_chunk_roundtrip,
    "metrics.reservoir_add_ns": metrics_reservoir_add,
    "metrics.summarize_ns_per_sample": metrics_summarize,
}


def run_loops(smoke: bool = False) -> tuple[dict[str, float], float, int]:
    """Returns ``(ns per op by metric, sum of loop medians in seconds,
    operations per pass)``."""
    n = SMOKE_N if smoke else N
    ns_per_op: dict[str, float] = {}
    total_s = 0.0
    total_ops = 0
    for name, build in LOOPS.items():
        times = []
        ops = n
        for _ in range(2 if smoke else REPEATS):
            body = build(n)
            ops = getattr(body, "ops", n)
            before = reference_pass()
            started = time.perf_counter()
            body()
            took = time.perf_counter() - started
            times.append(at_reference_speed([took],
                                            [before, reference_pass()]))
        typical = statistics.median(times)
        ns_per_op[name] = typical / ops * 1e9
        total_s += typical
        total_ops += ops
    return ns_per_op, total_s, total_ops
