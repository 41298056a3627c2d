"""Dispatch-table completeness over the wire-message catalog.

Every message dataclass in :mod:`repro.consensus.messages` must have a
registered handler on each engine that can receive it, in the
class-level ``@handles`` table. A new message type added without a
handler turns from a mid-run ``ConsensusError`` on first delivery into a
failure here.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.consensus import messages as messages_module
from repro.craft.global_engine import CRaftGlobalEngine
from repro.craft.local import CRaftLocalEngine
from repro.craft.server import CRaftServer
from repro.fastraft.engine import FastRaftEngine
from repro.raft.engine import ClassicRaftEngine

#: Wire/bookkeeping dataclasses engines never dispatch on, with the
#: reason each is exempt. Anything new must either get a handler or an
#: explicit entry here.
NON_ENGINE_MESSAGES = {
    "ClientReply": "delivered to clients, not to servers",
    "Envelope": "unwrapped by the server layer before engine dispatch",
    "PendingClient": "leader-side bookkeeping record, never on the wire",
    "ReadRequest": "lease reads are served by the server layer",
    "ReadReply": "delivered to clients, not to servers",
}

#: Message types only the *other* protocol family uses.
PROTOCOL_EXEMPT = {
    ClassicRaftEngine: {"ProposeEntry", "VoteEntry"},
    FastRaftEngine: {"ProposeToLeader"},
    CRaftLocalEngine: {"ProposeToLeader"},
    CRaftGlobalEngine: {"ProposeToLeader"},
}

ENGINES = sorted(PROTOCOL_EXEMPT, key=lambda cls: cls.__name__)


def message_types() -> dict[str, type]:
    return {name: cls
            for name, cls in inspect.getmembers(messages_module,
                                                inspect.isclass)
            if cls.__module__ == messages_module.__name__
            and dataclasses.is_dataclass(cls)}


@pytest.mark.parametrize("engine_cls", ENGINES,
                         ids=lambda cls: cls.__name__)
def test_flat_table_covers_every_receivable_message(engine_cls):
    expected = (set(message_types())
                - set(NON_ENGINE_MESSAGES)
                - PROTOCOL_EXEMPT[engine_cls])
    table = {cls.__name__ for cls in engine_cls._DISPATCH_TABLE}
    missing = expected - table
    assert not missing, (
        f"{engine_cls.__name__} has no @handles entry for {sorted(missing)}"
        " -- these messages would raise ConsensusError on delivery")


def test_flat_tables_hold_only_known_messages():
    """No stale entries: every table key is a catalog message class."""
    catalog = set(message_types().values())
    for engine_cls in ENGINES:
        stray = set(engine_cls._DISPATCH_TABLE) - catalog
        assert not stray, f"{engine_cls.__name__}: {stray}"


def test_exempt_messages_have_a_server_side_route():
    """The engine exemptions are justified: the server layer actually
    handles Envelope (both the wrapped and the enveloped fast path),
    and ClientReply is a client-side type."""
    assert callable(CRaftServer.on_message)
    assert callable(CRaftServer.on_enveloped)
    assert "ClientReply" in message_types()
    # PendingClient never travels: nothing to route.
    assert "PendingClient" in NON_ENGINE_MESSAGES
