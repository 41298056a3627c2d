"""Message payload sizing: the one place that decides how a class is priced.

The paper's latency model (and PR 1's) charged every message the same
one-way delay, so a 10,000-entry snapshot "arrived" as fast as a
heartbeat. Real links serialize bytes; to charge transfer cost the
network needs a *size* for every message, in simulated bytes. A size
feeds a size-aware latency model's wire time, hence delivery order,
hence everything downstream -- sizes are data the simulation depends
on, not telemetry.

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
  (``Any``, containers) is handed to :func:`estimate_size`. The
  annotations are the wire schema: a field annotated ``int`` must hold
  an ``int`` (a ``None`` in a ``str`` field fails loudly);
- anything that is not a dataclass (application commands, test
  payloads) is priced by :func:`walk_size`: a header plus its
  :func:`estimate_size`.

:func:`estimate_size` -- the structural size of any value, what a
durable write of a log entry is charged and what an opaque message
field costs -- is the same kind of dispatch over an **estimator
registry** beside the sizer registry. ``None``, ``str``, ``bytes``,
``bool``, ``int`` and ``float`` are priced on the spot; exact ``tuple``,
``list`` and ``dict`` by a flat loop that prices their leaves inline
and dispatches on the rest; every dataclass by a **compiled
estimator**, built on first use by the *same generator* as the compiled
sizers -- a plain dataclass's sizer is its estimator plus
:data:`HEADER_SIZE`, nothing else -- and reading and filling the
``_est_size`` memo where the walker would.

:func:`walk_estimate` is the single generic walker and the definition
of a size: a deterministic structural walk (strings/bytes by length,
scalars at a fixed width, containers and dataclasses by summed fields
plus a small framing overhead). It still runs for what has no estimator
of its own -- enums, subclasses of the builtins, sets, opaque objects
-- and takes over past :data:`_MAX_DEPTH` levels of nesting, where
estimators calling estimators would run out of stack; being iterative,
it cannot. Every estimator and every compiled sizer must agree with it
bit for bit, memo side effects included (``tests/test_net_sizes.py``,
``pytest --size-audit``; ``benchmarks/suite/signatures.json`` must keep
matching after any change here). The estimate is intentionally crude
-- the simulation needs *relative* cost (a snapshot is thousands of
times a heartbeat), not wire-accurate encodings.

Memo slots: immutable dataclasses that declare an ``_est_size`` slot
with :func:`size_memo` get their structural size stored in place the
first time they are measured -- by the walker, their estimator and
their compiled sizer alike -- so a broadcast measures each entry once,
ever. Memo slots are never counted, so a memoised object measures
exactly what a fresh one does -- and a class declaring one must be
``frozen=True``, or the memo would silently go stale (refused when the
class is first sized).

The classes priced here are declared with :func:`frozen_dataclass`, the
module's other generator: ``dataclass(frozen=True, slots=True)`` with a
compiled constructor (building wire objects is as hot as sizing them).
Every generated function -- constructor, sizer, estimator -- is
compiled under a per-class pseudo-filename (``<init LogEntry>``,
``<sizer VoteEntry>``, ``<estimator LogEntry>``), so profiles list them
one row each instead of collapsing them into ``<string>``.
"""

from __future__ import annotations

import dataclasses
import enum
from itertools import chain
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

#: The sizer registry: message class -> its wire sizer (see module
#: docstring).
_SIZERS: dict[type, Callable[[Any], int]] = {}

#: The estimator registry: class -> ``estimator(obj, depth)``, its
#: structural size (see module docstring). Exact ``tuple``/``list``/
#: ``dict`` are entered below; every other class registers on first use.
_ESTIMATORS: dict[type, Callable[[Any, int], int]] = {}

#: Estimators call each other down a nested value; past this many
#: levels the iterative walker takes over, so no input can exhaust the
#: interpreter's call stack. Real traffic nests about a dozen deep
#: (message -> entries -> payload -> batched entries -> command).
_MAX_DEPTH = 32

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


def is_size_memo(field: dataclasses.Field) -> bool:
    """True for a :func:`size_memo` slot: a cache, never state."""
    return bool(field.metadata.get(_MEMO_KEY))


def frozen_dataclass(cls: type) -> type:
    """``dataclass(frozen=True, slots=True)`` with a compiled constructor:
    the decorator of every immutable wire object (messages, log entries,
    entry payloads).

    The class is the stdlib's in every respect -- ``fields()``,
    ``replace()``, ``__eq__``/``__hash__``/``__repr__``, the frozen
    ``__setattr__``/``__delattr__``, the slots ``__getstate__``/
    ``__setstate__`` that pickling and ``mc.fork_world`` use,
    ``__dataclass_params__`` -- except ``__init__``. The stdlib's frozen
    constructor stores each field through ``object.__setattr__(self,
    "f", f)``, a C slot wrapper per field that costs more than the rest
    of the construction put together (and that ``cProfile`` cannot see).
    The one generated here builds the object as a *layout-identical
    mutable twin*: retype ``self`` to a plain class with the same
    ``__slots__``, store the fields with ordinary attribute assignment,
    retype it back -- two class assignments instead of one wrapper call
    per field (break-even at two fields). The twin is never observable:
    ``self`` is the frozen class again before ``__post_init__`` runs
    and before the constructor returns, and nothing else holds a
    reference in between.

    Contract (``tests/test_frozen_init.py`` holds each class against a
    twin built by the plain stdlib decorator): same parameters, defaults,
    order and annotations as the stdlib constructor; ``init=False``
    defaults (the :func:`size_memo` slots) filled; ``__post_init__``
    called last. Decorated classes are final -- a subclass inheriting
    this ``__init__`` would be retyped to its parent. A class the
    generator does not cover (``default_factory``, ``InitVar``/
    ``ClassVar`` pseudo-fields, keyword-only fields, a base other than
    ``object``) keeps the stdlib constructor.

    The function's constants ride in its ``exec`` namespace, not in
    default arguments (they would show in the signature, and a default
    is shared by every instance and every forked mc world); its
    pseudo-filename ``<init ClassName>`` gives every class its own
    ``cProfile``/``pstats`` row.
    """
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    fields = dataclasses.fields(cls)
    if (cls.__bases__ != (object,)
            or len(fields) != len(cls.__dataclass_fields__)
            or any(f.default_factory is not dataclasses.MISSING or f.kw_only
                   for f in fields)):
        return cls
    twin = type(cls.__name__, (), {"__slots__": cls.__slots__})
    namespace = {"__name__": cls.__module__, "__cls__": cls,
                 "__twin__": twin, "__retype__": object.__setattr__}
    params = ["self"]
    body = ["__retype__(self, '__class__', __twin__)"]
    for f in fields:
        has_default = f.default is not dataclasses.MISSING
        default = f"__default_{f.name}__"
        if has_default:
            namespace[default] = f.default
        if f.init:
            params.append(f"{f.name}={default}" if has_default else f.name)
            body.append(f"self.{f.name} = {f.name}")
        elif has_default:
            body.append(f"self.{f.name} = {default}")
    body.append("self.__class__ = __cls__")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = (f"def __init__({', '.join(params)}):\n"
              + "\n".join(f"    {line}" for line in body))
    exec(compile(source, f"<init {cls.__qualname__}>", "exec"), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = dict(cls.__init__.__annotations__)
    cls.__init__ = init
    return cls


def _class_info(cls: type) -> tuple[tuple[str, ...], bool]:
    info = _CLASS_INFO.get(cls)
    if info is None:
        fields = dataclasses.fields(cls)
        memos = [f.name for f in fields if is_size_memo(f)]
        if memos and not cls.__dataclass_params__.frozen:
            raise TypeError(
                f"{cls.__qualname__} declares memo slot(s) "
                f"{', '.join(memos)} but is not frozen=True: a memo on a "
                f"mutable object would go stale and skew delays")
        info = (tuple(f.name for f in fields if f.name not in memos),
                "_est_size" in memos)
        _CLASS_INFO[cls] = info
    return info


def estimate_size(obj: Any, _depth: int = 0) -> int:
    """Deterministic structural size of ``obj`` in simulated bytes.

    Leaves are priced here; anything else by its class's entry in the
    estimator registry (``_depth`` is the estimators' own nesting count,
    not a caller's argument)."""
    if obj is None:
        return 0
    cls = obj.__class__
    if cls is str or cls is bytes:
        return len(obj)
    if cls is bool:
        return BOOL_SIZE
    if cls is int or cls is float:
        return SCALAR_SIZE
    estimator = _ESTIMATORS.get(cls)
    if estimator is None:
        estimator = estimator_for(cls)
    return estimator(obj, _depth)


def walk_estimate(obj: Any) -> int:
    """The generic structural walk: the definition of a size. Every
    estimator and compiled sizer must return exactly what this returns
    and leave exactly the memos it leaves; it prices whatever has no
    estimator of its own."""
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
    """The sizer of a class without one of its own: header plus
    :func:`estimate_size`."""
    return HEADER_SIZE + estimate_size(message)


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def _estimate_container(obj: Any, depth: int) -> int:
    """Exact ``tuple``/``list``/``dict``: one frame plus the items (a
    dict's keys and values), leaves priced in the loop."""
    if depth >= _MAX_DEPTH:
        return walk_estimate(obj)
    depth += 1
    size = FRAME_SIZE
    for v in (chain(obj, obj.values()) if obj.__class__ is dict else obj):
        if v is None:
            continue
        cls = v.__class__
        if cls is str or cls is bytes:
            size += len(v)
        elif cls is int or cls is float:
            size += SCALAR_SIZE
        elif cls is bool:
            size += BOOL_SIZE
        else:
            estimator = _ESTIMATORS.get(cls)
            if estimator is None:
                estimator = estimator_for(cls)
            size += estimator(v, depth)
    return size


def _estimate_by_walk(obj: Any, depth: int) -> int:
    """Enums, subclasses of builtins, sets, opaque objects."""
    return walk_estimate(obj)


_ESTIMATORS.update(dict.fromkeys((tuple, list, dict), _estimate_container))

#: What the walker recognises before it asks ``is_dataclass``: a
#: dataclass deriving from one of these is priced as that builtin.
_WALKED_AS_BUILTIN = (bytes, bytearray, str, int, float, enum.Enum, dict,
                      list, tuple, set, frozenset)


def _is_plain_dataclass(cls: type) -> bool:
    return (dataclasses.is_dataclass(cls)
            and not issubclass(cls, _WALKED_AS_BUILTIN))


def estimator_for(cls: type) -> Callable[[Any, int], int]:
    """The registered estimator of ``cls``, registering it on first
    use: a compiled one for a dataclass, the walker for the rest."""
    estimator = _ESTIMATORS.get(cls)
    if estimator is None:
        estimator = (_compile(cls, 0) if _is_plain_dataclass(cls)
                     else _estimate_by_walk)
        _ESTIMATORS[cls] = estimator
    return estimator


# ----------------------------------------------------------------------
# The generator behind compiled estimators and compiled sizers
# ----------------------------------------------------------------------
_set_memo = object.__setattr__
#: Cost of a field only its value's own estimator can price.
_NESTED = "estimate_size(v, depth)"


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
        return (f"(v._est_size if v._est_size is not None else {_NESTED})",
                nullable)
    # Opaque: None included.
    return _NESTED, False


def _compile(cls: type, header: int) -> Callable[..., int]:
    """Generate ``cls``'s flat size function (see module docstring):
    ``header + walk_estimate(m)``, memoised in the same ``_est_size``
    slot the walker would fill. ``header`` is 0 for an estimator and
    :data:`HEADER_SIZE` for a wire sizer -- the only difference
    between the two."""
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
    plus_header = f" + {header}" if header else ""
    if any(_NESTED in line for line in body):
        body = [f"if depth >= {_MAX_DEPTH}:",
                f"    return walk_estimate(m){plus_header}",
                "depth += 1"] + body
    if memoising:
        body = (["size = m._est_size", "if size is None:"]
                + [f"    {line}" for line in body]
                + ["    _set_memo(m, '_est_size', size)"])
    body.append(f"return size{plus_header}")
    source = ("def size_of(m, depth=0):\n"
              + "\n".join(f"    {line}" for line in body))
    namespace: dict[str, Any] = {}
    # Generated from field names only; runs against this module's
    # globals (estimate_size, walk_estimate, _set_memo). The per-class
    # pseudo-filename keeps each one its own cProfile/pstats row.
    kind = "sizer" if header else "estimator"
    exec(compile(source, f"<{kind} {cls.__qualname__}>", "exec"),
         globals(), namespace)
    size_of = namespace["size_of"]
    size_of.__qualname__ = (f"{'size' if header else 'estimate'}"
                            f"_{cls.__qualname__}")
    return size_of


def sizer_for(cls: type) -> Callable[[Any], int]:
    """The registered sizer of ``cls``, registering it on first use."""
    sizer = _SIZERS.get(cls)
    if sizer is None:
        own = getattr(cls, "payload_size", None)
        if dataclasses.is_dataclass(cls):
            _class_info(cls)  # stale-memo guard, hand-written or not
        if callable(own):
            sizer = own
        elif _is_plain_dataclass(cls):
            sizer = _compile(cls, HEADER_SIZE)
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
