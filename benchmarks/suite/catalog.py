"""The metric catalogue: every name the suite prints, with unit,
direction, regression bound and the workloads it applies to.

One table feeds the runner's output, ``compare.py``, the README glossary
and the consistency test against ``BENCHMARK.json``. Bounds are relative
(share of the baseline value) unless ``abs_bound`` is set, in which case
the larger of the two tolerances applies.
"""

from __future__ import annotations

from dataclasses import dataclass

PROTOCOL = ("lan_closed", "serving_rw", "wan_faults", "mesh_fleet")
ALL = PROTOCOL + ("layer_micro",)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                      # "lower" | "higher"
    meaning: str
    workloads: tuple[str, ...] = PROTOCOL
    bound: float | None = None       # end-to-end metrics only
    abs_bound: float = 0.0
    host_time: bool = False          # varies run to run (else exact per seed)


def _e2e(name, unit, better, bound, meaning, workloads=PROTOCOL, **kw):
    return Metric(name, unit, better, meaning, workloads, bound, **kw)


#: The 16 end-to-end metrics. ``BENCHMARK.json`` can only list metrics
#: every listed workload emits, so its ``end_to_end`` holds the first
#: seven; the workload-specific ones are printed with the traced run and
#: judged by ``compare.py`` with the bounds below.
END_TO_END: tuple[Metric, ...] = (
    _e2e("setup_s", "s", "lower", 0.25,
         "interpreter start + imports + median over trials of build + "
         "bootstrap (elections, global ready, client creation, sim "
         "warm-up) up to the window, at reference speed (calib.py)",
         ALL, abs_bound=0.1, host_time=True),
    _e2e("wall_s", "s", "lower", 0.25,
         "host time to simulate the fixed measurement window + drain at "
         "reference speed (calib.py), mean over trial seeds (layer_micro: "
         "sum of loop medians)", ALL,
         host_time=True),
    _e2e("req_per_wall_s", "1/s", "higher", 0.25,
         "client requests completed in the windows / host time of all "
         "trials at reference speed (layer_micro: loop operations / "
         "wall_s)", ALL,
         host_time=True),
    _e2e("peak_rss_mb", "MB", "lower", 0.10,
         "ru_maxrss of the workload's process", ALL, host_time=True),
    _e2e("sim_ack_p50_ms", "ms", "lower", 0.06,
         "write: first submission -> committed reply at the client, "
         "across retries (paper section VI), median"),
    _e2e("sim_ack_p99_ms", "ms", "lower", 0.20, "same, 99th percentile"),
    _e2e("sim_goodput_rps", "1/s", "higher", 0.08,
         "requests acked per sim second over the window"),
    _e2e("sim_read_p50_ms", "ms", "lower", 0.05,
         "Client.read() -> ReadReply(ok), median", ("serving_rw",)),
    _e2e("sim_read_p99_ms", "ms", "lower", 0.10,
         "same, 99th percentile", ("serving_rw",)),
    _e2e("sim_global_p50_ms", "ms", "lower", 0.05,
         "first submission -> applied from the global log at the "
         "submitting site, median (C-Raft acks at local commit)",
         ("mesh_fleet",)),
    _e2e("sim_global_p99_ms", "ms", "lower", 0.10,
         "same, 99th percentile", ("mesh_fleet",)),
    _e2e("sim_global_rps", "1/s", "higher", 0.05,
         "entries applied from the global log per sim second (Fig. 5)",
         ("mesh_fleet",)),
    _e2e("sim_max_rate_rps", "1/s", "higher", 0.0,
         "highest rung of the fixed 3-rate ladder that meets the "
         "workload's limit with failed_fraction <= 0.01 and no growing "
         "backlog (0: none)", ("serving_rw", "mesh_fleet")),
    _e2e("sim_unavail_s", "s", "lower", 0.10,
         "median over leader crashes: crash -> first ack of a request "
         "submitted after it", ("wan_faults",)),
    _e2e("sim_catchup_s", "s", "lower", 0.10,
         "median over rejoins: return/recover -> the site's commit index "
         "reaching the leader's as of that instant", ("wan_faults",)),
    _e2e("failed_fraction", "ratio", "lower", 0.0,
         "abandoned + unfinished + refused + acked-but-lost, over "
         "attempted", abs_bound=0.002),
)

#: Names in ``BENCHMARK.json``'s ``end_to_end`` (emitted with --trace 0).
CONTRACT_E2E = ("setup_s", "wall_s", "req_per_wall_s", "peak_rss_mb",
                "sim_ack_p50_ms", "sim_ack_p99_ms", "sim_goodput_rps")


def _layer(name, unit, better, meaning, workloads=PROTOCOL, **kw):
    return Metric(name, unit, better, meaning, workloads, **kw)


LAYERS = ("sim", "net", "storage", "consensus", "raft", "fastraft", "craft",
          "smr", "snapshot", "metrics", "harness")

#: (A) counters read after a tracing-off repeat; exact per seed, deltas
#: over window + drain.
COUNTERS: tuple[Metric, ...] = (
    _layer("sim.events", "count", "lower", "events the loop fired"),
    _layer("sim.events_per_req", "count", "lower",
           "events per completed request"),
    _layer("net.sent", "count", "lower", "messages handed to the fabric"),
    _layer("net.delivered", "count", "lower", "messages delivered"),
    _layer("net.dropped", "count", "lower", "messages the loss model ate"),
    _layer("net.blocked", "count", "lower",
           "messages cut by a partition or a departed endpoint"),
    _layer("net.dead_letter", "count", "lower",
           "messages addressed to a crashed site"),
    _layer("net.msgs_per_req", "count", "lower",
           "messages sent per completed request"),
    _layer("net.bytes_per_req", "B", "lower",
           "payload bytes sent per completed request (size-aware "
           "latency models only, else 0)"),
    _layer("storage.writes_per_req", "count", "lower",
           "StableStore writes per completed request"),
    _layer("storage.write_bytes_per_req", "B", "lower",
           "StableStore bytes written per completed request"),
    _layer("consensus.terms_advanced", "count", "lower",
           "terms advanced, summed over voting groups"),
    _layer("consensus.final_commit_index", "count", "higher",
           "commit index of the top-level log when the run ends"),
    _layer("consensus.single_site_ack_p50_ms", "ms", "lower",
           "median ack of the same closed loop against a 1-site group",
           ("lan_closed",)),
    _layer("craft.ops_per_batch_mean", "count", "higher",
           "client entries per globally applied batch", ("mesh_fleet",)),
    _layer("craft.global_backlog_end", "count", "lower",
           "acked but not yet globally applied requests at window end",
           ("mesh_fleet",)),
    _layer("craft.global_backlog_final", "count", "lower",
           "acked but still not globally applied when the drain ends "
           "(partial batches wait for more entries: no age flush)",
           ("mesh_fleet",)),
    _layer("smr.session_duplicates", "count", "lower",
           "retries answered from the session table"),
    _layer("smr.retries_per_req", "count", "lower",
           "client resubmissions per request"),
    _layer("smr.acked_lost", "count", "lower",
           "acked writes absent from a live site after the drain"),
    _layer("smr.abandoned", "count", "lower",
           "requests given up after max_attempts"),
    _layer("snapshot.taken", "count", "lower", "snapshots captured"),
    _layer("snapshot.installed", "count", "lower", "snapshots installed"),
    _layer("snapshot.shipped", "count", "lower", "snapshot transfers begun"),
    _layer("snapshot.chunks_sent", "count", "lower", "snapshot chunks sent"),
    _layer("snapshot.entries_compacted", "count", "higher",
           "log entries dropped by compaction"),
    _layer("harness.build_s", "s", "lower", "constructing the system",
           host_time=True),
    _layer("harness.bootstrap_s", "s", "lower",
           "elections, global ready, clients, warm-up", host_time=True),
    _layer("host.cpu_s", "s", "lower",
           "process CPU time of window + drain", host_time=True),
)

#: (B) from the traced repeat: TraceRecorder reducers and cProfile buckets.
TRACED: tuple[Metric, ...] = (
    _layer("consensus.elections_started", "count", "lower",
           "(group, term) pairs that saw an election timeout"),
    _layer("consensus.elections_won", "count", "lower",
           "of those, the ones some candidate won"),
    _layer("consensus.elections_no_winner", "count", "lower",
           "of those, the ones nobody won"),
    _layer("consensus.follower_lag_max", "entries", "lower",
           "largest gap between a group's newest commit and the index a "
           "member was committing"),
    _layer("fastraft.fast_commits", "count", "higher",
           "entries committed on the fast track"),
    _layer("fastraft.classic_commits", "count", "lower",
           "classic-track commit advances"),
    _layer("fastraft.fast_track_share", "ratio", "higher",
           "fast-track entries / entries committed"),
    _layer("fastraft.proposals_per_req", "count", "lower",
           "propose events (retries included) per completed request"),
    _layer("craft.batches_proposed", "count", "lower",
           "global batches proposed", ("mesh_fleet",)),
    _layer("craft.gate_opens", "count", "lower",
           "global inserts gated through local consensus", ("mesh_fleet",)),
    _layer("craft.batch_wait_p50_ms", "ms", "lower",
           "local commit -> the batch covering it proposed, median",
           ("mesh_fleet",)),
    _layer("craft.global_round_p50_ms", "ms", "lower",
           "batch proposed -> applied at its proposer, median",
           ("mesh_fleet",)),
    _layer("smr.lease_reads_served", "count", "higher",
           "reads served locally under a lease", ("serving_rw",)),
) + tuple(
    _layer(f"{layer}.{suffix}", unit, "lower", meaning, host_time=True)
    for layer in LAYERS
    for suffix, unit, meaning in (
        ("self_s", "s", "profiled self time of the layer"),
        ("share", "ratio", "its share of all profiled self time"),
        ("calls", "count", "profiled calls into the layer"))
) + (
    _layer("host.other_self_s", "s", "lower",
           "self time outside src/repro: builtins, stdlib, the "
           "benchmark's own drivers", host_time=True),
    _layer("host.other_share", "ratio", "lower", "its share",
           host_time=True),
    _layer("host.trace_overhead_x", "x", "lower",
           "traced + profiled wall / untraced wall_s", host_time=True),
)

#: (C) layer_micro loops: ns per operation at reference speed, median
#: of 5.
MICRO: tuple[Metric, ...] = tuple(
    _layer(name, "ns", "lower", meaning, ("layer_micro",), host_time=True)
    for name, meaning in (
        ("sim.schedule_fire_ns", "call_later + fire, random delays"),
        ("sim.cancel_ns", "call_later + Handle.cancel"),
        ("sim.timer_reset_ns", "RestartableTimer.reset"),
        ("net.send_ns", "Network.send + deliver, constant latency"),
        ("net.send_region_lossy_ns",
         "Network.send + deliver, region latency, 2% loss"),
        ("net.payload_size_ns", "payload_size of a fresh ClientRequest"),
        ("storage.touch_ns", "StableStore.touch"),
        ("consensus.log_append_ns", "RaftLog.append"),
        ("consensus.log_slice_ns", "RaftLog.entries_between, 21 entries"),
        ("consensus.log_compact_ns",
         "RaftLog.compact_to in steps of 100, per entry dropped"),
        ("craft.batcher_cycle_ns",
         "Batcher observe/take/cover/done, per entry"),
        ("craft.coalescer_cycle_ns", "ProposalCoalescer add/drain, per entry"),
        ("smr.session_observe_ns", "SessionTable.observe"),
        ("smr.session_is_duplicate_ns", "SessionTable.is_duplicate"),
        ("smr.kv_apply_ns", "KVStateMachine.apply(put)"),
        ("snapshot.chunk_roundtrip_ns",
         "serialize -> 4 KiB chunks -> assemble -> deserialize, per chunk"),
        ("metrics.reservoir_add_ns", "StreamingReservoir.add"),
        ("metrics.summarize_ns_per_sample", "summarize, per sample"),
    ))

#: Names in ``BENCHMARK.json``'s ``per_layer`` (emitted with --trace 1):
#: the workload-specific end-to-end metrics, then (A) and (B).
CONTRACT_PER_LAYER = tuple(
    m.name for m in END_TO_END if m.name not in CONTRACT_E2E
) + tuple(m.name for m in COUNTERS + TRACED)

BY_NAME = {m.name: m for m in END_TO_END + COUNTERS + TRACED + MICRO}
