"""State-machine replication on top of the consensus protocols.

The consensus layer totally orders entries; this layer turns that order
into an application: a :class:`~repro.smr.machine.StateMachine` applied at
every site, a replicated key-value store as the stock example, and a
:class:`~repro.smr.client.Client` with the paper's proposal-timeout retry
loop and exactly-once semantics.
"""

from repro.smr.client import Client
from repro.smr.kv import KVCommand, KVStateMachine
from repro.smr.machine import StateMachine

__all__ = [
    "Client",
    "KVCommand",
    "KVStateMachine",
    "StateMachine",
]
