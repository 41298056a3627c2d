"""Sizer and estimator equivalence battery.

A message's size feeds a size-aware model's wire time, hence delivery
order, hence everything a size-aware run produces, and an entry's size is what
a durable write is charged -- so every sizer and every estimator in the
:mod:`repro.net.sizes` registries must agree, bit for bit, with the
reference: the generic structural walk (``walk_estimate``) for
estimators and compiled sizers, the documented formula for hand-written
``payload_size`` methods.

The reference is always computed on a *memo-free rebuild* of the object
under test (``size_oracle.fresh``), so it can neither read nor leave
behind any memo the registries' answer depends on.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import pathlib
import sys
import types
import typing
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import messages as msgs
from repro.consensus.entry import (BatchPayload, ConfigPayload, EntryKind,
                                   GlobalStatePayload, InsertedBy, LogEntry)
from repro.net import sizes
from repro.net.sizes import (FRAME_SIZE, HEADER_SIZE, SCALAR_SIZE,
                             estimate_size, payload_size, size_memo,
                             sizer_for, walk_estimate, walk_size)
from repro.smr.kv import KVCommand
from repro.snapshot import Snapshot
from repro.snapshot.chunking import snapshot_wire_size
from size_oracle import fresh
from test_dispatch_tables import message_types

PAYLOAD_CLASSES = (ConfigPayload, GlobalStatePayload, BatchPayload)
CATALOG = tuple(message_types().values())
#: Everything the battery sizes at top level.
SIZED_CLASSES = CATALOG + (LogEntry,) + PAYLOAD_CLASSES


# ----------------------------------------------------------------------
# Reference
# ----------------------------------------------------------------------
def reference(message: Any) -> int:
    """What ``payload_size(message)`` must return."""
    m = fresh(message)
    if isinstance(m, msgs.AppendEntries):
        return (HEADER_SIZE + 5 * SCALAR_SIZE + len(m.leader_id)
                + walk_estimate(m.entries))
    if isinstance(m, msgs.InstallSnapshotRequest):
        return (HEADER_SIZE + SCALAR_SIZE + len(m.leader_id)
                + snapshot_wire_size(m.snapshot))
    if isinstance(m, msgs.InstallSnapshotChunk):
        return (HEADER_SIZE + 5 * SCALAR_SIZE + len(m.leader_id)
                + len(m.data))
    if isinstance(m, msgs.RecoveryProbeReply):
        return (HEADER_SIZE + 3 * SCALAR_SIZE
                + sum(len(member) for member in m.members)
                + len(m.leader_hint or ""))
    if isinstance(m, msgs.Envelope):
        return (len(m.level) + len(m.scope) + SCALAR_SIZE
                + reference(m.inner))
    return HEADER_SIZE + walk_estimate(m)


# ----------------------------------------------------------------------
# Strategies over field values, derived from the annotations
# ----------------------------------------------------------------------
names = st.text(alphabet="abcn0123:-", max_size=9)
leaves = (st.none() | st.booleans() | st.integers(-2**40, 2**40)
          | st.floats(allow_nan=False) | names | st.binary(max_size=40))
plain = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(names, inner, max_size=3)),
    max_leaves=6)
commands = st.one_of(
    st.builds(KVCommand.put, names, plain),
    st.builds(lambda key: {"op": "delete", "key": key}, names),
    st.builds(KVCommand.append, names, names))
snapshots = st.builds(
    Snapshot, last_included_index=st.integers(0, 10**6),
    last_included_term=st.integers(0, 99), machine_state=plain,
    applied_ids=st.lists(names, max_size=4).map(tuple), origin=names)


def entries_with(payloads) -> st.SearchStrategy:
    return st.builds(LogEntry, entry_id=names,
                     kind=st.sampled_from(EntryKind), payload=payloads,
                     origin=names, term=st.integers(0, 10**6),
                     inserted_by=st.sampled_from(InsertedBy))


leaf_entries = entries_with(commands | st.none())

#: Fields whose annotation alone does not say what they carry.
OVERRIDES = {
    (msgs.InstallSnapshotRequest, "snapshot"): snapshots,
    (msgs.ClientRequest, "command"): commands,
    (GlobalStatePayload, "snapshot"): st.none() | snapshots,
    (msgs.Envelope, "inner"): st.deferred(lambda: any_message),
}


def strategy_for(hint: Any, entry_strategy) -> st.SearchStrategy:
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        return st.one_of(*(strategy_for(arg, entry_strategy)
                           for arg in typing.get_args(hint)))
    if origin is tuple:
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            return st.lists(strategy_for(args[0], entry_strategy),
                            max_size=3).map(tuple)
        return st.tuples(*(strategy_for(arg, entry_strategy)
                           for arg in args))
    if origin is dict:
        return st.dictionaries(names, plain, max_size=2)
    if hint is LogEntry:
        return entry_strategy
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return st.sampled_from(hint)
    return {type(None): st.none(), bool: st.booleans(),
            int: st.integers(-2**40, 2**40),
            float: st.floats(allow_nan=False), str: names,
            bytes: st.binary(max_size=40), Any: plain}[hint]


def instances(cls: type, entry_strategy=leaf_entries) -> st.SearchStrategy:
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{
        f.name: (OVERRIDES[cls, f.name] if (cls, f.name) in OVERRIDES
                 else strategy_for(hints[f.name], entry_strategy))
        for f in dataclasses.fields(cls) if f.init})


payloads = st.one_of(*(instances(cls) for cls in PAYLOAD_CLASSES))
rich_entries = entries_with(commands | st.none() | payloads)
STRATEGIES = {cls: (rich_entries if cls is LogEntry
                    else instances(cls, rich_entries))
              for cls in SIZED_CLASSES}
any_message = st.one_of(*(STRATEGIES[cls] for cls in CATALOG
                          if cls is not msgs.Envelope))

battery = pytest.mark.parametrize("cls", SIZED_CLASSES,
                                  ids=lambda cls: cls.__name__)
quick = settings(deadline=None, max_examples=40)


# ----------------------------------------------------------------------
# The battery
# ----------------------------------------------------------------------
@battery
@given(data=st.data())
@quick
def test_fresh_and_memoised_sizes_match_the_reference(cls, data):
    message = data.draw(STRATEGIES[cls])
    want = reference(message)
    assert payload_size(message) == want          # fresh
    assert payload_size(message) == want          # memo slots now filled
    if "_est_size" in getattr(cls, "__slots__", ()) and not hasattr(
            cls, "payload_size"):
        # Same slot, same content as the walker's memo.
        assert message._est_size == want - HEADER_SIZE
        assert estimate_size(message) == want - HEADER_SIZE
    # Equal objects, equal sizes: memo slots never leak into equality.
    assert fresh(message) == message


@battery
@given(data=st.data())
@quick
def test_enveloped_size_is_routing_tag_plus_inner(cls, data):
    message = data.draw(STRATEGIES[cls])
    level, scope = data.draw(names), data.draw(names)
    envelope = msgs.Envelope(level, scope, message)
    want = len(level) + len(scope) + SCALAR_SIZE + reference(message)
    assert payload_size(envelope) == want
    assert payload_size(envelope) == want
    assert reference(envelope) == want


@given(entry=rich_entries, term=st.integers(0, 10**6),
       by=st.sampled_from(InsertedBy), measured_first=st.booleans())
@quick
def test_with_mark_copy_sizes_like_a_fresh_entry(entry, term, by,
                                                 measured_first):
    if measured_first:
        payload_size(entry)
    stamped = entry.with_mark(term, by)
    assert payload_size(stamped) == reference(stamped)
    assert payload_size(entry) == reference(entry)
    # A stamp memo pointing at ``stamped`` is a memo slot: an entry
    # re-measured from scratch must not count it.
    object.__setattr__(entry, "_stamp_memo", (term, by, stamped))
    object.__setattr__(entry, "_est_size", None)
    assert payload_size(entry) == reference(entry)
    object.__setattr__(entry, "_est_size", None)
    assert estimate_size(entry) == reference(entry) - HEADER_SIZE


@pytest.mark.parametrize("cls", [msgs.ProposeToLeader, msgs.ProposeEntry,
                                 msgs.VoteEntry],
                         ids=lambda cls: cls.__name__)
@given(data=st.data())
@quick
def test_entry_carriers_size_a_with_mark_copy(cls, data):
    message = data.draw(STRATEGIES[cls])
    stamped = message.entry.with_mark(data.draw(st.integers(0, 99)),
                                      data.draw(st.sampled_from(InsertedBy)))
    restamped = dataclasses.replace(message, entry=stamped)
    assert payload_size(restamped) == reference(restamped)


@given(command=commands)
def test_commands_are_priced_by_the_generic_walk(command):
    assert payload_size(command) == HEADER_SIZE + walk_estimate(command)
    assert estimate_size(command) == walk_estimate(command)


@battery
def test_no_catalog_class_falls_back_to_the_generic_walk(cls):
    sizer = sizer_for(cls)
    assert sizer is not walk_size
    own = getattr(cls, "payload_size", None)
    assert sizer is own or own is None


# ----------------------------------------------------------------------
# Estimators against the walker
# ----------------------------------------------------------------------
mixes = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(names | st.integers(0, 9), inner,
                                     max_size=3)),
    max_leaves=12)
global_states = st.builds(
    GlobalStatePayload,
    inserts=st.lists(st.tuples(st.integers(0, 10**6), leaf_entries),
                     max_size=9).map(tuple),
    global_commit=st.integers(0, 10**6), snapshot=st.none() | snapshots)
entry_payloads = st.one_of(
    st.none(), commands, mixes, instances(ConfigPayload), global_states,
    instances(BatchPayload), snapshots)


def memos(obj: Any) -> list:
    """Every ``_est_size`` slot reachable from ``obj``, in field order."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = [f for f in dataclasses.fields(obj) if f.init]
        own = [(type(obj).__name__, obj._est_size)] if hasattr(
            obj, "_est_size") else []
        return own + [m for f in fields for m in memos(getattr(obj, f.name))]
    if isinstance(obj, (tuple, list)):
        return [m for item in obj for m in memos(item)]
    if isinstance(obj, dict):
        return [m for item in obj.values() for m in memos(item)]
    return []


@pytest.mark.parametrize("kind", EntryKind, ids=lambda kind: kind.name)
@given(data=st.data())
@quick
def test_estimators_match_the_walker(kind, data):
    payload = data.draw(entry_payloads)
    entry = LogEntry(data.draw(names), kind, payload, data.draw(names),
                     data.draw(st.integers(0, 10**6)),
                     data.draw(st.sampled_from(InsertedBy)))
    walked = fresh(entry)
    want = walk_estimate(walked)
    assert estimate_size(entry) == want               # fresh
    # Same memo slots, same values as the walker leaves behind.
    assert memos(entry) == memos(walked)
    assert all(size is not None for _, size in memos(entry))
    assert estimate_size(entry) == want               # memoised
    assert estimate_size(fresh(payload)) == walk_estimate(fresh(payload))
    # Containers of them, as AppendEntries and BatchPayload hold them.
    twin = fresh(entry)
    assert (estimate_size([(7, twin), twin, None])
            == 2 * FRAME_SIZE + SCALAR_SIZE + 2 * want)
    assert memos(twin) == memos(walked)
    stamped = fresh(entry).with_mark(data.draw(st.integers(0, 99)),
                                     data.draw(st.sampled_from(InsertedBy)))
    assert stamped._est_size == want                  # inherited, not walked
    assert estimate_size(stamped) == walk_estimate(fresh(stamped)) == want


def test_deep_nesting_is_handed_to_the_walker():
    deep_list: Any = []
    deep_dict: Any = {}
    deep_entry: Any = None
    for _ in range(5000):
        deep_list = [deep_list]
        deep_dict = {"k": (deep_dict,)}
        deep_entry = LogEntry("n0:r", EntryKind.DATA, deep_entry, "n0", 1,
                              InsertedBy.SELF)
    assert estimate_size(deep_list) == 5001 * FRAME_SIZE
    assert estimate_size(deep_dict) == 5000 * (2 * FRAME_SIZE + 1) + FRAME_SIZE
    assert estimate_size(deep_entry) == 5000 * (FRAME_SIZE + 3 * SCALAR_SIZE
                                                + len("n0:r") + len("n0"))
    assert payload_size(msgs.ClientRequest("r", deep_list)) == (
        HEADER_SIZE + FRAME_SIZE + SCALAR_SIZE + 1 + 5001 * FRAME_SIZE)


def test_no_suite_workload_walks_its_entries():
    """The steady path of every suite workload prices entries, commands,
    entry payloads and snapshots through compiled estimators: the walker
    stays the definition of a size, not the way one is computed."""
    root = str(pathlib.Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from benchmarks.suite.workloads import WORKLOADS, run_trial

    walked: collections.Counter = collections.Counter()

    def counting(obj):
        walked[type(obj)] += 1
        return walk_estimate(obj)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sizes, "walk_estimate", counting)
        for name in ("lan_closed", "serving_rw", "wan_faults", "mesh_fleet"):
            run_trial(WORKLOADS[name], 1000, smoke=True)
    assert not walked.keys() & {
        LogEntry, dict, tuple, list, ConfigPayload, GlobalStatePayload,
        BatchPayload, Snapshot, *CATALOG}, walked


# ----------------------------------------------------------------------
# The walker's quirks, pinned
# ----------------------------------------------------------------------
class Colour(enum.Enum):
    RED = "a-long-enum-value"


class Level(enum.IntEnum):
    HIGH = 3


class Tagged(dict):
    """A dict subclass: priced as a dict."""


@dataclasses.dataclass
class Boxed(dict):
    """A dataclass that is also a dict: the walker sees the dict."""
    tag: str = ""


Pair = collections.namedtuple("Pair", "left right")


@dataclasses.dataclass(frozen=True)
class Plain:
    a: int
    b: str


@dataclasses.dataclass(frozen=True)
class Memoised:
    a: int
    b: Any
    _est_size: int | None = size_memo()


class TestWalkerQuirks:
    @pytest.mark.parametrize("obj, size", [
        (None, 0), (True, 1), (False, 1), (0, 8), (2**80, 8), (1.5, 8),
        (Colour.RED, 8), ("", 0), ("héllo", 5), (b"abc", 3),
        (bytearray(b"abcd"), 4), ((), 16), ([], 16), ({}, 16),
        (frozenset(), 16), ((1, "ab", None, True), 16 + 8 + 2 + 0 + 1),
        ({"k": [1, 2], "kk": None}, 16 + 1 + (16 + 16) + 2),
        (object(), 16), (Plain(1, "xyz"), 16 + 8 + 3),
        ((Plain(1, ""), Plain(2, "")), 16 + 2 * 24),
        # bool is not int; an IntEnum is a scalar; subclasses of the
        # builtin containers are priced as what they derive from.
        ((True, 1), 16 + 1 + 8), ({True: 1, 2: False}, 16 + 1 + 8 + 8 + 1),
        (Level.HIGH, 8), ([Level.HIGH, Colour.RED], 16 + 8 + 8),
        (Tagged(k="vv"), 16 + 1 + 2), ((Tagged(), Tagged(a=1)), 16 + 16 + 25),
        (Pair("ab", 1), 16 + 2 + 8), ({"p": Pair(None, b"xyz")}, 16 + 1 + 19),
        (collections.OrderedDict(a=b"12"), 16 + 1 + 2),
        (Boxed("never-counted"), 16), ([Boxed("t")], 16 + 16),
        ([bytearray(b"abcd"), b"ab"], 16 + 4 + 2), ({1.5, 2.5}, 16 + 16),
        ((frozenset({"ab"}), {"k": {"kk": (1,)}}), 16 + 18 + 16 + 1 + 16 + 2 + 24),
    ])
    def test_structural_sizes(self, obj, size):
        assert walk_estimate(obj) == size
        assert estimate_size(obj) == size
        assert payload_size(obj) == HEADER_SIZE + size

    def test_memo_slot_is_filled_and_never_counted(self):
        inner = Memoised(1, "abc")
        outer = Memoised(2, (inner, inner))
        assert estimate_size(outer) == 16 + 8 + (16 + 2 * (16 + 8 + 3))
        assert inner._est_size == 27
        assert outer._est_size == 16 + 8 + 16 + 54
        assert estimate_size(outer) == outer._est_size
        assert payload_size(Memoised(2, (inner, inner))) == (
            HEADER_SIZE + outer._est_size)

    def test_compiled_sizer_folds_fixed_width_fields(self):
        response = msgs.AppendEntriesResponse(
            term=3, success=True, follower="n1", match_index=7,
            last_log_index=9, beat_sent_at=0.25)
        assert payload_size(response) == (
            HEADER_SIZE + FRAME_SIZE + 4 * SCALAR_SIZE + 1 + len("n1"))
        assert "estimate_size" not in sizer_for(
            msgs.AppendEntriesResponse).__code__.co_names

    def test_nullable_fields(self):
        assert (payload_size(msgs.JoinRequest("n1", replaces="n22"))
                - payload_size(msgs.JoinRequest("n1"))) == 3
        assert (payload_size(msgs.ClientReply("r", True, index=4))
                - payload_size(msgs.ClientReply("r", True))) == SCALAR_SIZE

    def test_append_entries_keeps_five_scalar_slots_for_four(self):
        """The C-Raft global-commit field is gone, but its slot is still
        charged, so bandwidth-charged delays are what they were."""
        fields = {f.name for f in dataclasses.fields(msgs.AppendEntries)}
        assert "global_commit" not in fields
        beat = msgs.AppendEntries(term=3, leader_id="n0", prev_log_index=7,
                                  prev_log_term=2, entries=(),
                                  leader_commit=7)
        assert payload_size(beat) == (HEADER_SIZE + 5 * SCALAR_SIZE
                                      + len("n0") + FRAME_SIZE)


# ----------------------------------------------------------------------
# Stale-memo guard
# ----------------------------------------------------------------------
@dataclasses.dataclass
class MutableMemoised:
    value: str
    _est_size: int | None = size_memo()


@dataclasses.dataclass
class MutableWithOwnMethod:
    value: str
    _wire_size: int | None = size_memo()

    def payload_size(self) -> int:
        return len(self.value)


@dataclasses.dataclass(slots=True)
class MutableUnmemoised:
    request_id: str
    entry: LogEntry
    replied: bool = False
    extra: dict[str, Any] = dataclasses.field(default_factory=dict)


class TestStaleMemoGuard:
    @pytest.mark.parametrize("cls", [MutableMemoised,
                                     MutableWithOwnMethod])
    def test_mutable_class_with_a_memo_slot_is_refused(self, cls):
        with pytest.raises(TypeError, match=cls.__name__):
            payload_size(cls("x"))
        with pytest.raises(TypeError, match=cls.__name__):
            sizer_for(cls)            # a failed registration is not kept
        assert cls not in sizes._SIZERS

    def test_the_walker_refuses_it_too(self):
        with pytest.raises(TypeError, match="MutableMemoised"):
            walk_estimate(("nested", MutableMemoised("x")))

    def test_the_estimators_refuse_it_too(self):
        for holder in (MutableMemoised("x"), ("nested", MutableMemoised("x")),
                       {"k": [MutableMemoised("x")]},
                       LogEntry("n0:r", EntryKind.DATA, MutableMemoised("x"),
                                "n0", 1, InsertedBy.SELF)):
            with pytest.raises(TypeError, match="MutableMemoised"):
                estimate_size(holder)
            with pytest.raises(TypeError, match="MutableMemoised"):
                estimate_size(holder)  # a failed registration is not kept
        assert MutableMemoised not in sizes._ESTIMATORS

    def test_mutable_class_without_memo_is_fine(self):
        pending = MutableUnmemoised("r1", LogEntry(
            "n0:r1", EntryKind.DATA, None, "n0", 1, InsertedBy.SELF))
        before = payload_size(pending)
        pending.replied = True
        pending.extra["k"] = "vvvv"
        assert payload_size(pending) == before + len("k") + len("vvvv")
        assert payload_size(pending) == reference(pending)
