"""Message payload sizing: the one place that decides how a class is priced.

The paper's latency model (and PR 1's) charged every message the same
one-way delay, so a 10,000-entry snapshot "arrived" as fast as a
heartbeat. Real links serialize bytes; to charge transfer cost the
network needs a *size* for every message, in simulated bytes. A size
feeds ``serialization_delay``, hence delivery order, hence everything
downstream -- sizes are data the simulation depends on, not telemetry.

:func:`payload_size` looks the message's class up in a **sizer
registry** and calls what it finds. The registry is filled lazily, the
first time a class is sent, by :func:`sizer_for`:

- a class with a hand-written ``payload_size()`` method registers that
  method (AppendEntries sums its entries' memos, a snapshot chunk
  reports its slice length, an Envelope adds its routing tag to the
  wrapped message's own size);
- any other dataclass gets a **compiled sizer**: a flat function
  generated from ``dataclasses.fields(cls)`` and the type annotations.
  Fixed-width fields (``int``/``float``/enum: :data:`SCALAR_SIZE`,
  ``bool``: 1) fold into one constant together with
  :data:`FRAME_SIZE` and :data:`HEADER_SIZE`, ``str``/``bytes`` fields
  cost ``len()``, fields holding a memoising dataclass (log entries,
  entry payloads) read its ``_est_size`` memo, and anything opaque
  (``Any``, containers) falls through to :func:`estimate_size`. The
  annotations are the wire schema: a field annotated ``int`` must hold
  an ``int`` (a ``None`` in a ``str`` field fails loudly);
- anything that is not a dataclass (application commands, test
  payloads) is priced by :func:`walk_size`, the generic walk.

:func:`estimate_size` stays the single generic walker: a deterministic
structural walk (strings/bytes by length, scalars at a fixed width,
containers and dataclasses by summed fields plus a small framing
overhead). It is the fallback for commands and opaque fields, and the
reference every compiled sizer must agree with bit for bit
(``tests/test_net_sizes.py``; ``benchmarks/suite/signatures.json`` must
keep matching after any sizer change). The estimate is intentionally
crude -- the simulation needs *relative* cost (a snapshot is thousands
of times a heartbeat), not wire-accurate encodings.

Memo slots: immutable dataclasses that declare an ``_est_size`` slot
with :func:`size_memo` get their structural size stored in place the
first time they are measured, by the walker and by their compiled sizer
alike, so a broadcast measures each entry once, ever. Memo slots are
never counted, so a memoised object measures exactly what a fresh one
does -- and a class declaring one must be ``frozen=True``, or the memo
would silently go stale (refused when the class is first sized).
"""

from __future__ import annotations

import dataclasses
import enum
import types
import typing
from typing import Any, Callable

#: Fixed cost of a scalar field (ints, floats, enum tags).
SCALAR_SIZE = 8
#: Cost of a ``bool`` field.
BOOL_SIZE = 1
#: Framing overhead per container or dataclass (type tag + length).
FRAME_SIZE = 16
#: Per-message envelope overhead (addresses, type tag): the floor under
#: tiny messages.
HEADER_SIZE = 32

_MEMO_KEY = "size_memo"

#: type -> (sized field names, has an ``_est_size`` memo slot).
_CLASS_INFO: dict[type, tuple[tuple[str, ...], bool]] = {}

#: The registry: message class -> its sizer (see module docstring).
_SIZERS: dict[type, Callable[[Any], int]] = {}

#: Frame-closing sentinel for the iterative walk (cannot collide with
#: any sizable object).
_CLOSE = object()


def size_memo() -> Any:
    """A memo slot on a frozen dataclass: ``_est_size`` (structural
    size, filled by the walker and the compiled sizers), ``_wire_size``
    (a hand-written ``payload_size``'s own cache), or any other derived
    value worth keeping on an immutable object. Never counted by
    sizing; excluded from comparison and repr; ``init=False`` keeps
    constructors and ``dataclasses.replace`` unchanged -- a replaced
    copy starts with an empty memo."""
    return dataclasses.field(default=None, init=False, repr=False,
                             compare=False, metadata={_MEMO_KEY: True})


def _class_info(cls: type) -> tuple[tuple[str, ...], bool]:
    info = _CLASS_INFO.get(cls)
    if info is None:
        fields = dataclasses.fields(cls)
        memos = [f.name for f in fields if f.metadata.get(_MEMO_KEY)]
        if memos and not cls.__dataclass_params__.frozen:
            raise TypeError(
                f"{cls.__qualname__} declares memo slot(s) "
                f"{', '.join(memos)} but is not frozen=True: a memo on a "
                f"mutable object would go stale and skew delays")
        info = (tuple(f.name for f in fields if f.name not in memos),
                "_est_size" in memos)
        _CLASS_INFO[cls] = info
    return info


def estimate_size(obj: Any) -> int:
    """Deterministic structural size of ``obj`` in simulated bytes."""
    # Leaf and memo-hit fast paths: most calls size a scalar, a short
    # string, or an already-measured entry -- none of which should pay
    # for the walker's stacks.
    if obj is None:
        return 0
    cls = obj.__class__
    if cls is str or cls is bytes:
        return len(obj)
    if cls is bool:
        return BOOL_SIZE
    if cls is int or cls is float:
        return SCALAR_SIZE
    # Only the opt-in dataclasses define an ``_est_size`` slot, so a
    # filled one is a finished measurement (checking is_dataclass here
    # would cost a function call per memo hit for no information).
    cached = getattr(obj, "_est_size", None)
    if cached is not None:
        return cached
    # The walk is iterative -- an explicit work stack instead of
    # recursion -- so deep entry payloads never pay Python call frames
    # or risk the recursion limit.
    sums = [0]
    owners: list[Any] = []
    work = [obj]
    while work:
        o = work.pop()
        if o is _CLOSE:
            sub = sums.pop()
            owner = owners.pop()
            object.__setattr__(owner, "_est_size", sub)
            sums[-1] += sub
            continue
        if o is None:
            continue
        if isinstance(o, (bytes, bytearray)):
            sums[-1] += len(o)
        elif isinstance(o, str):
            sums[-1] += len(o)
        elif isinstance(o, bool):
            sums[-1] += BOOL_SIZE
        elif isinstance(o, (int, float)):
            sums[-1] += SCALAR_SIZE
        elif isinstance(o, enum.Enum):
            sums[-1] += SCALAR_SIZE
        elif isinstance(o, dict):
            sums[-1] += FRAME_SIZE
            work.extend(o.keys())
            work.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            sums[-1] += FRAME_SIZE
            work.extend(o)
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            names, cacheable = _class_info(o.__class__)
            if cacheable:
                cached = o._est_size
                if cached is not None:
                    sums[-1] += cached
                    continue
                # Open a frame: everything between here and the _CLOSE
                # marker sums into this object's memo.
                owners.append(o)
                sums.append(FRAME_SIZE)
                work.append(_CLOSE)
            else:
                sums[-1] += FRAME_SIZE
            for name in names:
                work.append(getattr(o, name))
        else:
            # Opaque object: charge a frame so it is never free.
            sums[-1] += FRAME_SIZE
    return sums[0]


def walk_size(message: Any) -> int:
    """The generic sizer: header plus the structural walk."""
    return HEADER_SIZE + estimate_size(message)


# ----------------------------------------------------------------------
# Compiled sizers
# ----------------------------------------------------------------------
def _field_cost(hint: Any) -> tuple[int | str, bool]:
    """How one field is priced, from its annotation: ``(cost,
    nullable)`` where ``cost`` is a constant or an expression over the
    field's value ``v``."""
    nullable = False
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        args = typing.get_args(hint)
        if len(args) == 2 and type(None) in args:
            hint = args[0] if args[1] is type(None) else args[1]
            nullable = True
    if hint is bool:
        return BOOL_SIZE, nullable
    if hint is int or hint is float or (
            isinstance(hint, type) and issubclass(hint, enum.Enum)):
        return SCALAR_SIZE, nullable
    if hint is str or hint is bytes:
        return "len(v)", nullable
    if (isinstance(hint, type) and dataclasses.is_dataclass(hint)
            and _class_info(hint)[1]):
        return ("(v._est_size if v._est_size is not None "
                "else estimate_size(v))"), nullable
    # Opaque: the walker prices it, None included.
    return "estimate_size(v)", False


def _compile_sizer(cls: type) -> Callable[[Any], int]:
    """Generate ``cls``'s flat sizer (see module docstring). Returns
    exactly ``HEADER_SIZE + estimate_size(message)`` and memoises in
    the same ``_est_size`` slot the walker would."""
    names, memoising = _class_info(cls)
    try:
        hints = typing.get_type_hints(cls)
    except (NameError, TypeError):
        hints = {}  # unresolvable annotations: every field is opaque
    constant = FRAME_SIZE
    body = []
    for name in names:
        cost, nullable = _field_cost(hints.get(name, Any))
        if nullable:
            body += [f"v = m.{name}", "if v is not None:",
                     f"    size += {cost}"]
        elif isinstance(cost, int):
            constant += cost
        else:
            body += [f"v = m.{name}", f"size += {cost}"]
    body.insert(0, f"size = {constant}")
    if memoising:
        body = (["size = m._est_size", "if size is None:"]
                + [f"    {line}" for line in body]
                + ["    set_memo(m, '_est_size', size)"])
    body.append(f"return size + {HEADER_SIZE}")
    source = "def sizer(m):\n" + "\n".join(f"    {line}" for line in body)
    namespace = {"estimate_size": estimate_size,
                 "set_memo": object.__setattr__}
    exec(source, namespace)  # generated from field names only
    sizer = namespace["sizer"]
    sizer.__qualname__ = f"size_{cls.__qualname__}"
    return sizer


def sizer_for(cls: type) -> Callable[[Any], int]:
    """The registered sizer of ``cls``, registering it on first use."""
    sizer = _SIZERS.get(cls)
    if sizer is None:
        own = getattr(cls, "payload_size", None)
        is_dataclass = dataclasses.is_dataclass(cls)
        if is_dataclass:
            _class_info(cls)  # stale-memo guard, hand-written or not
        if callable(own):
            sizer = own
        elif is_dataclass:
            sizer = _compile_sizer(cls)
        else:
            sizer = walk_size
        _SIZERS[cls] = sizer
    return sizer


def payload_size(message: Any) -> int:
    """Wire size of ``message`` in simulated bytes."""
    sizer = _SIZERS.get(message.__class__)
    if sizer is None:
        sizer = sizer_for(message.__class__)
    return sizer(message)
