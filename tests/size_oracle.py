"""The memo-blind size oracle.

What a value's size *is*: the generic walker (:func:`walk_estimate`) run
on a memo-free rebuild of the value, so the answer can neither read nor
leave behind a memo the code under test depends on. The sizing battery
(``test_net_sizes.py``) and the ``--size-audit`` option (``conftest.py``)
both compare against it.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.net.sizes import HEADER_SIZE, walk_estimate


def fresh(obj: Any) -> Any:
    """Deep rebuild with every memo slot empty."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return type(obj)(**{f.name: fresh(getattr(obj, f.name))
                            for f in dataclasses.fields(obj) if f.init})
    if type(obj) is tuple:
        return tuple(fresh(item) for item in obj)
    if type(obj) is list:
        return [fresh(item) for item in obj]
    if type(obj) is dict:
        return {key: fresh(value) for key, value in obj.items()}
    return obj


def oracle_estimate(obj: Any) -> int:
    """What ``estimate_size(obj)`` must return."""
    return walk_estimate(fresh(obj))


def oracle_payload(message: Any) -> int:
    """What ``payload_size(message)`` must return: a hand-written
    ``payload_size`` method is its own definition (here without its
    memos), every other class costs a header plus the walk."""
    own = getattr(type(message), "payload_size", None)
    if callable(own):
        return own(fresh(message))
    return HEADER_SIZE + oracle_estimate(message)
