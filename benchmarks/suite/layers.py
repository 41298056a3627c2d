"""Per-layer accounting from outside: profile buckets and trace reducers.

Layers are named after ``src/repro/`` packages. Two sources live here,
both read after a *traced* trial (``trace_enabled=True`` under
``cProfile``) that is never used for an end-to-end number:

- :func:`profile_layers` buckets every profiled function's self time by
  the committed module -> layer map below;
- :func:`trace_metrics` / :func:`request_spans` reduce the run's
  ``TraceRecorder`` categories to election, track, batching and
  per-request phase numbers.

``cProfile`` charges every Python call but not the work inside C code,
so shares lean toward call-heavy layers; they locate candidates, the
untraced ``wall_s`` judges them.
"""

from __future__ import annotations

import pathlib
import pstats
from collections import defaultdict
from statistics import median

from repro.consensus.entry import EntryKind

from benchmarks.suite.catalog import LAYERS
from benchmarks.suite.reduce import global_apply_times

#: Package directory under ``src/repro/`` -> layer. Experiment drivers,
#: the scenario runner, the bench helpers and the model checker are all
#: harness-side code; top-level modules (``perf.py``, ``errors.py``)
#: count with them too.
LAYER_OF_PACKAGE = {
    "sim": "sim", "net": "net", "storage": "storage",
    "consensus": "consensus", "raft": "raft", "fastraft": "fastraft",
    "craft": "craft", "smr": "smr", "snapshot": "snapshot",
    "metrics": "metrics", "harness": "harness", "scenarios": "harness",
    "experiments": "harness", "bench": "harness", "mc": "harness",
}


def layer_of(filename: str) -> str | None:
    """Layer of a source file; None for anything outside ``src/repro``
    (stdlib, builtins, the benchmark's own drivers)."""
    parts = pathlib.PurePath(filename).parts
    for i in range(len(parts) - 1):
        if parts[i] == "src" and parts[i + 1] == "repro":
            rest = parts[i + 2:]
            if len(rest) == 1:
                return "harness"
            return LAYER_OF_PACKAGE.get(rest[0])
    return None


def profile_layers(profiler) -> dict[str, float]:
    """``<layer>.self_s`` / ``.share`` / ``.calls`` plus
    ``host.other_self_s``; shares sum to 1 with ``host.other`` included."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (filename, _, _), (_, ncalls, tottime, _, _) in pstats.Stats(
            profiler).stats.items():
        layer = layer_of(filename) or "host.other"
        self_s[layer] += tottime
        calls[layer] += ncalls
    total = sum(self_s.values()) or 1.0
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / total
        out[f"{layer}.calls"] = calls[layer]
    out["host.other_self_s"] = self_s["host.other"]
    out["host.other_share"] = self_s["host.other"] / total
    return out


# ----------------------------------------------------------------------
# Trace reducers
# ----------------------------------------------------------------------
def trace_metrics(trial, requests: int) -> dict[str, float]:
    """(B) metrics from ``TraceRecorder`` categories, window + drain.
    Engine categories are ``<protocol>.<event>`` with a ``scope`` payload
    naming the voting group, so one pass covers flat and C-Raft runs."""
    ctx = trial.ctx
    count: dict[str, int] = defaultdict(int)
    elections: dict[tuple, bool] = {}
    scope_commit: dict[str, int] = defaultdict(int)
    lag_max = 0
    fast_ids, committed_ids = set(), set()
    local_commit_at: dict[tuple[str, int], float] = {}
    batch_wait: list[float] = []
    proposed_at: dict[tuple[str, int], float] = {}
    for e in ctx.system.trace.events:
        if e.time < ctx.window_start:
            continue
        category, payload = e.category, e.payload
        count[category] += 1
        tail = category.rpartition(".")[2]
        scope = payload.get("scope", "main")
        if category.endswith("election.timeout"):
            elections.setdefault((scope, payload["term"]), False)
        elif category.endswith("election.won"):
            elections[(scope, payload["term"])] = True
        elif tail == "commit":
            index = payload["index"]
            top = scope_commit[scope] = max(scope_commit[scope], index)
            lag_max = max(lag_max, top - index)
            committed_ids.add(payload["entry_id"])
            if category == "craft.local.commit":
                local_commit_at[(e.node, index)] = e.time
        elif tail == "fast_commit":
            fast_ids.add(payload["entry_id"])
        elif tail in ("classic_commit", "propose"):
            count[tail] += 1
        elif category == "craft.batch.proposed":
            proposed_at[(e.node, payload["sequence"])] = e.time
            low, high = payload["local_range"]
            batch_wait += [e.time - local_commit_at[(e.node, i)]
                           for i in range(low, high + 1)
                           if (e.node, i) in local_commit_at]
    # Batch proposed -> applied from the global log at the proposer.
    applied = {node: batch_apply_times(ctx.system.servers[node])
               for node in {node for node, _ in proposed_at}}
    rounds = [applied[node][sequence] - when
              for (node, sequence), when in proposed_at.items()
              if sequence in applied[node]]
    return {
        "consensus.elections_started": len(elections),
        "consensus.elections_won": sum(elections.values()),
        "consensus.elections_no_winner": sum(
            1 for won in elections.values() if not won),
        "consensus.follower_lag_max": lag_max,
        "fastraft.fast_commits": len(fast_ids),
        "fastraft.classic_commits": count["classic_commit"],
        "fastraft.fast_track_share": (len(committed_ids & fast_ids)
                                      / max(1, len(committed_ids))),
        "fastraft.proposals_per_req": count["propose"] / max(1, requests),
        "craft.batches_proposed": count["craft.batch.proposed"],
        "craft.gate_opens": count["craft.gate.open"],
        "craft.batch_wait_p50_ms": (median(batch_wait) * 1e3
                                    if batch_wait else 0.0),
        "craft.global_round_p50_ms": (median(rounds) * 1e3
                                      if rounds else 0.0),
        "smr.lease_reads_served": count["lease.read_served"],
    }


def batch_apply_times(server) -> dict[int, float]:
    """batch sequence -> time this C-Raft site applied it from the global
    log, for its own cluster's batches."""
    batches = [entry for _, entry in server.global_applied
               if entry.kind is EntryKind.BATCH]
    return {batch.payload.sequence: when
            for (when, _), batch in zip(server.global_apply_events, batches)
            if batch.payload.cluster == server.cluster}


#: Phase boundaries of one write, in causal order; each span runs from
#: the previous mark that exists to this one and is charged to ``layer``.
PHASES = (("propose", "smr"), ("decision", "fastraft"),
          ("commit", "consensus"), ("reply", "smr"),
          ("batch", "craft"), ("global_apply", "craft"))


def request_spans(trial) -> list[dict]:
    """One span chain per measured write, keyed by entry id: submit ->
    propose -> decision -> fast/classic commit -> reply -> batch ->
    global apply, as far as the engine in use emits them."""
    ctx = trial.ctx
    marks: dict[str, dict[str, float]] = defaultdict(dict)
    track: dict[str, str] = {}
    local_index: dict[tuple[str, int], str] = {}
    batches = []
    for e in ctx.system.trace.events:
        tail = e.category.rpartition(".")[2]
        entry_id = e.payload.get("entry_id")
        if tail == "propose" or tail == "decision":
            marks[entry_id].setdefault(tail, e.time)
        elif tail == "fast_commit":
            track[entry_id] = "fast"
        elif tail == "commit":
            marks[entry_id].setdefault("commit", e.time)
            if e.category == "craft.local.commit":
                local_index[(e.node, e.payload["index"])] = entry_id
        elif e.category == "craft.batch.proposed":
            batches.append(e)
    for e in batches:
        low, high = e.payload["local_range"]
        for i in range(low, high + 1):
            entry_id = local_index.get((e.node, i))
            if entry_id is not None:
                marks[entry_id].setdefault("batch", e.time)
    applied = ({name: global_apply_times(s)
                for name, s in ctx.system.servers.items()}
               if batches else {})
    chains = []
    for r in ctx.load.requests:
        if (r.kind in ("read", "refused") or not r.record.done
                or not ctx.window_start <= r.due < ctx.window_end):
            continue
        entry_id = r.record.request_id
        found = marks.get(entry_id, {})
        found["reply"] = r.record.committed_at
        when = applied.get(r.site, {}).get(entry_id)
        if when is not None:
            found["global_apply"] = when
        spans, previous, parent = [], r.due, "request"
        for name, layer in PHASES:
            if name in found and found[name] >= previous:
                spans.append({"name": name, "layer": layer, "parent": parent,
                              "start": previous, "end": found[name]})
                previous, parent = found[name], name
        chains.append({"id": entry_id, "site": r.site, "start": r.due,
                       "end": previous,
                       "track": track.get(entry_id, "classic"),
                       "attempts": r.record.attempts, "spans": spans})
    return chains


def phase_medians(chains: list[dict]) -> dict[str, float]:
    """Median duration (sim ms) of each request phase -- where the
    latency of a typical request goes."""
    durations: dict[str, list[float]] = defaultdict(list)
    for chain in chains:
        for span in chain["spans"]:
            durations[span["name"]].append(span["end"] - span["start"])
    return {name: median(values) * 1e3 for name, values in durations.items()}
