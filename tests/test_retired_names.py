"""Retired mechanisms stay retired.

Each row names a guard, a regular expression, where it must not match
and the failure message. A match means deleted code came back, or a
rule that lives in one place grew a second copy. ``RETIRED_FILES`` lists
files that must not exist again. CHANGES.md records the change that
retired each one.

This module is skipped when scanning, so its own patterns never match.
"""

from __future__ import annotations

import pathlib
import re
from typing import NamedTuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
THIS = pathlib.Path(__file__).resolve()


class Retired(NamedTuple):
    guard: str
    pattern: str
    paths: tuple[str, ...]
    message: str
    exclude: tuple[str, ...] = ()


RETIRED = [
    Retired(
        "One serving front-end",
        r"SessionTable\(|session_duplicates \+=",
        ("src/repro",),
        "session front-end logic outside src/repro/smr -- compose "
        "ServingFrontend instead",
        exclude=("src/repro/smr",)),
    Retired(
        "One replication path",
        r"def (_append_targets|_broadcast_append_entries"
        r"|_send_append_entries|_handle_append_entries_response"
        r"|_append_entries_absorbed|_enqueue_config_change"
        r"|_global_commit_piggyback)\b",
        ("src/repro",),
        "replication path redefined outside src/repro/consensus/engine.py "
        "-- extend BaseEngine's",
        exclude=("src/repro/consensus/engine.py",)),
    Retired(
        "Classic Raft membership is static",
        r"def (admin_add_site|admin_remove_site|with_member|without_member)\b"
        r"|class NotLeaderError\b|\bconfig_epoch\b",
        ("src/repro",),
        "classic Raft administrator membership is back -- its "
        "configuration is the bootstrap one"),
    Retired(
        "Classic Raft membership is static",
        r"def (_start_next_config_change|_propose_joiner_config"
        r"|_append_config_entry|_finish_config_change)\b",
        ("src/repro/raft",),
        "a config-change path is back in src/repro/raft -- only Fast Raft "
        "changes membership"),
    Retired(
        "Experiments are declarations",
        r"REPRO_BENCH_|scheduler=|def (paper|quick|smoke)\(",
        ("src", "tests", "benchmarks", ".github"),
        "hand-written experiment glue is back -- declare presets on the "
        "Scenario instead"),
    Retired(
        "One scheduler",
        r"_WHEEL|_overflow|_cursor|getrefcount",
        ("src/repro",),
        "timer-wheel machinery is back in src/repro -- SimLoop schedules "
        "through one heap"),
    Retired(
        "Quorum rules are one module",
        r"is_(classic|fast|election)_quorum|config_entry_quorum"
        r"|tiebreaker_active",
        ("src/repro",),
        "a Configuration quorum method is back -- count votes with the "
        "functions of src/repro/consensus/quorum.py"),
    Retired(
        "Quorum rules are one module",
        r"def _classic_commit_point\b",
        ("src/repro",),
        "the classic-track commit point is computed once, in BaseEngine "
        "-- an engine's _advance_leader_commit only acts on it",
        exclude=("src/repro/consensus/engine.py",)),
    Retired(
        "Scheduled work is data",
        r"_deepcopy_dispatch",
        ("src",),
        "copy's dispatch table patched under src -- schedule bound "
        "methods instead of closures"),
    Retired(
        "One C-Raft transport",
        r"send_enveloped|_deliver_enveloped|env_fast|on_enveloped",
        ("src/repro",),
        "the wrapper-free envelope path is back -- C-Raft traffic crosses "
        "Network.send as a real Envelope"),
    Retired(
        "One insert path",
        r"_SYNC_GATE",
        ("src/repro",),
        "a fused synchronous insert is back -- Fast Raft inserts through "
        "_gate_insert"),
    Retired(
        "One latency path",
        r"_fixed_delay|_sample_flat",
        ("src/repro",),
        "a second latency path is back -- the fabric asks the model's "
        "one sample method"),
    Retired(
        "One event shape",
        r"_in_heap|_cancelled",
        ("src/repro/sim",),
        "per-event state beside the heap entry is back -- a pending event "
        "is one list [when, seq, callback, args] whose callback slot reads "
        "None once it fired or was cancelled"),
]

RETIRED_FILES = [
    ("One scheduler", "tests/heap_loop.py",
     "tests/heap_loop.py is back -- SimLoop is the heap"),
]


def scanned_files(paths, exclude):
    for top in paths:
        root = ROOT / top
        for path in sorted([root] if root.is_file() else root.rglob("*")):
            relative = path.relative_to(ROOT).as_posix()
            if (not path.is_file() or path == THIS
                    or "__pycache__" in path.parts
                    or path.suffix == ".pyc"
                    or any(relative == ex or relative.startswith(ex + "/")
                           for ex in exclude)):
                continue
            yield relative, path.read_text(errors="replace")


def matches(row):
    pattern = re.compile(row.pattern)
    return [f"{relative}:{number}: {line.strip()}"
            for relative, text in scanned_files(row.paths, row.exclude)
            for number, line in enumerate(text.splitlines(), start=1)
            if pattern.search(line)]


@pytest.mark.parametrize("row", RETIRED,
                         ids=[f"{row.guard}-{i}"
                              for i, row in enumerate(RETIRED)])
def test_retired_name_stays_gone(row):
    found = matches(row)
    assert not found, "\n".join([row.message, *found])


@pytest.mark.parametrize(("guard", "path", "message"), RETIRED_FILES,
                         ids=[path for _, path, _ in RETIRED_FILES])
def test_retired_file_stays_gone(guard, path, message):
    assert not (ROOT / path).exists(), message


def test_every_row_scans_something():
    """A path that moved would make its row vacuous."""
    for row in RETIRED:
        assert any(True for _ in scanned_files(row.paths, row.exclude)), row
