"""Retired mechanisms stay retired.

Each row names a guard, a regular expression, where it must not match
and the failure message. A match means deleted code came back, or a
rule that lives in one place grew a second copy. ``RETIRED_FILES`` lists
files that must not exist again, and ``FIXED_EDGES`` fixed bugs whose
xfail marker must not come back. CHANGES.md records the change that
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
        r"|_append_entries_absorbed|_enqueue_config_change)\b",
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
    Retired(
        "The governing configuration is one function",
        r"best_config_entry|governing_config\b|_derive_configuration"
        r"|_governing_config_version|decided_upto",
        ("src/repro",),
        "a second resolution of the governing configuration is back -- "
        "ask RaftLog.config_at(k, committed, base)"),
    Retired(
        "Apply histories keep one slot per entry",
        r"\bapplied_floor\b|\b(applied_log|global_applied)\.append\(",
        ("src/repro",),
        "an (index, entry) pair or a separate floor is back in an apply "
        "history -- append the entry to an AppliedLog, whose floor and "
        "position give its index"),
    Retired(
        "No write-only state",
        r"\b(global_commit_(hint|provider|sink)|_absorb_global_commit"
        r"|_global_commit_piggyback|delivered_by_type|bytes_by_type"
        r"|PendingClient)\b",
        ("src",),
        "a value nothing reads is back -- cluster members learn the global "
        "commit from applied GLOBAL_STATE entries only, and the network "
        "counts messages by type on send only"),
]

#: Fixed edges whose strict-xfail marker must not grow back: a line of
#: tests/ that holds ``pytest.mark.xfail``, or one of the ten after it,
#: may not name the edge. (pytest already fails a strict xfail that
#: passes; this catches the inverse, a marker left for a fixed edge.)
#: Their regression tests, tier-1 like this one, are
#: tests/test_craft_deployment.py::TestTwoMemberGlobalDeadlock and
#: tests/test_mc.py::test_evicted_while_down_recovery_is_live.
FIXED_EDGES = [
    ("Global-membership deadlock", r"deadlock|two.?member"),
    ("Evicted-while-down recovery", r"evicted|recovery|rejoin"),
]
XFAIL_WINDOW = 10

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


@pytest.mark.parametrize(("edge", "pattern"), FIXED_EDGES,
                         ids=[edge for edge, _ in FIXED_EDGES])
def test_fixed_edge_grows_no_xfail_marker(edge, pattern):
    mention = re.compile(pattern, re.IGNORECASE)
    found = []
    for relative, text in scanned_files(("tests",), ()):
        if not relative.endswith(".py"):
            continue
        lines = text.splitlines()
        for number, line in enumerate(lines):
            if "pytest.mark.xfail" not in line:
                continue
            window = lines[number:number + XFAIL_WINDOW + 1]
            found += [f"{relative}:{number + offset + 1}: {near.strip()}"
                      for offset, near in enumerate(window)
                      if mention.search(near)]
    assert not found, "\n".join(
        [f"stale xfail marker near the fixed {edge} edge -- remove it",
         *found])


@pytest.mark.parametrize(("guard", "path", "message"), RETIRED_FILES,
                         ids=[path for _, path, _ in RETIRED_FILES])
def test_retired_file_stays_gone(guard, path, message):
    assert not (ROOT / path).exists(), message


def test_every_row_scans_something():
    """A path that moved would make its row vacuous."""
    for row in RETIRED:
        assert any(True for _ in scanned_files(row.paths, row.exclude)), row
