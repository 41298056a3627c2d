"""Turn trials into numbers: sim-time metrics, (A) counters, signature.

Everything here is computed after a simulation stopped, from the request
ledger and from state the public objects expose -- nothing is sampled
inside ``src/``, and all of it is exact for a given seed. A trial reduces
to *samples* (latency lists and counts, all additive); a run pools the
samples of its trials before taking percentiles, so a p99 rests on every
trial's requests rather than on one trial's tail.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from statistics import median

from repro.consensus.entry import EntryKind
from repro.metrics.summary import percentile

from benchmarks.suite.workloads import (Trial, engines_by_scope,
                                        live_servers, snapshot_counters)


def state_of(server):
    machine = (server.global_state_machine
               if hasattr(server, "global_state_machine")
               else server.state_machine)
    return machine.snapshot()


def applied_point(server) -> int:
    """How far this site's replicated state has advanced."""
    if hasattr(server, "global_applied_index"):
        return server.global_applied_index
    return server.engine.commit_index


def global_apply_times(server) -> dict[str, float]:
    """entry id -> sim time it was applied from the global log at this
    C-Raft site (one ``global_apply_events`` row per applied BATCH)."""
    batches = [entry for _, entry in server.global_applied
               if entry.kind is EntryKind.BATCH]
    times: dict[str, float] = {}
    for (when, _), batch in zip(server.global_apply_events, batches):
        for inner in batch.payload.entries:
            times.setdefault(inner.entry_id, when)
    return times


# ----------------------------------------------------------------------
# Samples: one trial, additive
# ----------------------------------------------------------------------
def samples(trial: Trial) -> dict:
    """Client-visible samples over the requests that were due inside the
    measurement window. A refused, abandoned or still-pending request is
    *failed*: it is in ``attempted`` and in no latency list."""
    ctx = trial.ctx
    start, end = ctx.window_start, ctx.window_end
    requests = ctx.load.requests
    measured = [r for r in requests if start <= r.due < end]
    done = [r for r in measured if r.record is not None and r.record.done]
    writes = [r for r in done if r.kind != "read"]
    out = {
        "window_s": end - start,
        "attempted": len(measured),
        "failed": len(measured) - len(done),
        "completed": len(done),
        "acked_in_window": sum(
            1 for r in requests if r.record is not None and r.record.done
            and start <= r.record.committed_at < end),
        "ack_s": [r.record.latency for r in writes],
        "read_s": [r.record.latency for r in done if r.kind == "read"],
        "retries": sum(r.record.attempts - 1 for r in measured
                       if r.record is not None),
        "abandoned": sum(len(c.abandoned) for c in ctx.load.clients),
        "backlog_mid": _outstanding(requests, (start + end) / 2),
        "backlog_end": _outstanding(requests, end),
        "global_s": [], "global_applied_in_window": 0, "batch_sizes": [],
        "global_backlog_mid": 0, "global_backlog_end": 0,
        "global_unapplied_final": 0,
        "unavail_s": [], "catchup_s": [],
    }
    if hasattr(next(iter(ctx.system.servers.values())), "global_applied"):
        out.update(_global_samples(trial, writes))
    done_pairs = sorted((r.due, r.record.committed_at) for r in requests
                        if r.record is not None and r.record.done)
    for when, kind, _ in ctx.fired:
        if kind == "crash":
            # Crash instant -> first ack of a request submitted after it.
            first = min((ack for due, ack in done_pairs if due > when),
                        default=None)
            if first is not None:
                out["unavail_s"].append(first - when)
    out["catchup_s"] = [c[2] for c in ctx.catchups if c[2] is not None]
    return out


def _outstanding(requests, at: float) -> int:
    """Requests due by ``at`` and not yet answered at ``at``."""
    return sum(1 for r in requests
               if r.due <= at and r.record is not None
               and not (r.record.done and r.record.committed_at <= at))


def _global_samples(trial: Trial, writes) -> dict:
    """C-Raft acks at *local* commit; these follow each request on to the
    global log -- the latency and the backlog the ack hides."""
    ctx = trial.ctx
    servers = ctx.system.servers
    start, end = ctx.window_start, ctx.window_end
    applied_at = {name: global_apply_times(s) for name, s in servers.items()}
    lat = []
    for r in writes:
        when = applied_at[r.site].get(r.record.request_id)
        if when is not None:
            lat.append(when - r.due)
    # Fig. 5's numerator: entries applied from the global log, at the
    # site that applied the most inside the window.
    per_site = [sum(n for t, n in s.global_apply_events if start <= t < end)
                for s in servers.values()]
    batches = max((s.global_apply_events for s in servers.values()), key=len)

    def backlog(at: float) -> int:
        """Acked by ``at`` but not yet applied from the global log at the
        submitting site."""
        count = 0
        for r in ctx.load.requests:
            record = r.record
            if record is None or not record.done or record.committed_at > at:
                continue
            when = applied_at[r.site].get(record.request_id)
            count += when is None or when > at
        return count

    return {"global_s": lat,
            "global_applied_in_window": max(per_site),
            "batch_sizes": [n for t, n in batches if t >= start and n],
            "global_backlog_mid": backlog((start + end) / 2),
            "global_backlog_end": backlog(end),
            "global_unapplied_final": backlog(ctx.system.loop.now())}


def pool(trials: list[dict]) -> dict:
    """Concatenate lists, add counts."""
    out: dict = {}
    for key in trials[0]:
        values = [t[key] for t in trials]
        out[key] = (sum(values, []) if isinstance(values[0], list)
                    else sum(values))
    return out


def _pct(values: list[float], fraction: float, scale: float = 1.0) -> float:
    return percentile(sorted(values), fraction) * scale if values else 0.0


def sim_metrics(s: dict) -> dict[str, float]:
    """The sim-time end-to-end metrics of pooled samples."""
    batches = s["batch_sizes"]
    return {
        "sim_ack_p50_ms": _pct(s["ack_s"], 0.50, 1e3),
        "sim_ack_p99_ms": _pct(s["ack_s"], 0.99, 1e3),
        "sim_read_p50_ms": _pct(s["read_s"], 0.50, 1e3),
        "sim_read_p99_ms": _pct(s["read_s"], 0.99, 1e3),
        "sim_global_p50_ms": _pct(s["global_s"], 0.50, 1e3),
        "sim_global_p99_ms": _pct(s["global_s"], 0.99, 1e3),
        "sim_goodput_rps": s["acked_in_window"] / s["window_s"],
        "sim_global_rps": s["global_applied_in_window"] / s["window_s"],
        "sim_unavail_s": median(s["unavail_s"]) if s["unavail_s"] else 0.0,
        "sim_catchup_s": median(s["catchup_s"]) if s["catchup_s"] else 0.0,
        "failed_fraction": s["failed"] / max(1, s["attempted"]),
        "smr.retries_per_req": s["retries"] / max(1, s["attempted"]),
        "smr.abandoned": s["abandoned"],
        "craft.ops_per_batch_mean": sum(batches) / max(1, len(batches)),
        "craft.global_backlog_end": s["global_backlog_end"],
    }


def sample_counts(s: dict) -> dict[str, int]:
    """How many samples each percentile above rests on."""
    return {"ack": len(s["ack_s"]), "read": len(s["read_s"]),
            "global": len(s["global_s"]), "unavail": len(s["unavail_s"]),
            "catchup": len(s["catchup_s"])}


# ----------------------------------------------------------------------
# (A) counters
# ----------------------------------------------------------------------
def counter_deltas(trial: Trial) -> Counter:
    """Cumulative counters, window start -> end of drain (additive)."""
    now = snapshot_counters(trial.ctx)
    return Counter({k: now[k] - trial.base[k] for k in now})


def counter_metrics(delta: Counter, completed: int) -> dict[str, float]:
    """(A) per-layer counters from summed deltas."""
    per_req = max(1, completed)
    out = {
        "sim.events": delta["sim.events"],
        "sim.events_per_req": delta["sim.events"] / per_req,
        "net.sent": delta["net.sent"],
        "net.delivered": delta["net.delivered"],
        "net.dropped": delta["net.dropped"],
        "net.blocked": delta["net.blocked"],
        "net.dead_letter": delta["net.dead_letter"],
        "net.msgs_per_req": delta["net.sent"] / per_req,
        "net.bytes_per_req": delta["net.bytes"] / per_req,
        "storage.writes_per_req": delta["storage.writes"] / per_req,
        "storage.write_bytes_per_req": delta["storage.write_bytes"] / per_req,
        "consensus.terms_advanced": delta["consensus.terms"],
        "smr.session_duplicates": delta["smr.session_duplicates"],
    }
    for key in ("taken", "installed", "shipped", "chunks_sent",
                "entries_compacted"):
        out[f"snapshot.{key}"] = delta[f"snapshot.{key}"]
    return out


def final_commit_index(system) -> int:
    scopes = engines_by_scope(system)
    top = scopes.get("global") or scopes["main"]
    return max(e.commit_index for e in top)


def signature(trial: Trial) -> dict:
    """What must not change unless protocol behaviour changed: the whole
    trial's event count, the final commit index, and a digest of the
    replicated state at the most advanced live site."""
    system = trial.ctx.system
    newest = max(live_servers(system), key=applied_point)
    digest = hashlib.sha256(
        repr(sorted(state_of(newest).items())).encode("utf-8")
    ).hexdigest()[:16]
    return {"sim.events": system.loop.events_processed,
            "consensus.final_commit_index": final_commit_index(system),
            "kv_digest": digest}
