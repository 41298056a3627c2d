"""Constructor contract of :func:`repro.net.sizes.frozen_dataclass`.

The decorator replaces exactly one thing of a ``dataclass(frozen=True,
slots=True)``: ``__init__``. Every wire class is held here against a
*reference twin* -- the same fields, defaults and user methods under the
plain stdlib decorator -- so whatever the stdlib constructor would have
done (values, defaults, signature, argument errors, ``__post_init__``),
the compiled one must do too; and the object it returns must be
indistinguishable from a stdlib-built one (frozen, the right type,
``replace`` / ``pickle`` / ``deepcopy`` round trips).
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import entry as entry_module
from repro.consensus import messages as messages_module
from repro.consensus.entry import ConfigPayload
from repro.net import sizes
from repro.net.sizes import frozen_dataclass, payload_size, size_memo
from test_net_sizes import SIZED_CLASSES, STRATEGIES

#: Every frozen wire class: the message catalog (less the one mutable
#: bookkeeping record), LogEntry and the entry payloads.
WIRE_CLASSES = tuple(cls for cls in SIZED_CLASSES
                     if cls.__dataclass_params__.frozen)

each_class = pytest.mark.parametrize("cls", WIRE_CLASSES,
                                     ids=lambda cls: cls.__name__)
quick = settings(deadline=None, max_examples=25)


def stdlib_twin(cls: type) -> type:
    """``cls`` rebuilt by plain ``dataclass(frozen=True, slots=True)``:
    same name, module, annotations, field specs and user-written
    methods; the stdlib's generated ``__init__``."""
    namespace: dict[str, Any] = {
        "__module__": cls.__module__, "__qualname__": cls.__qualname__,
        "__annotations__": {f.name: f.type
                            for f in dataclasses.fields(cls)}}
    for f in dataclasses.fields(cls):
        namespace[f.name] = dataclasses.field(
            default=f.default, init=f.init, repr=f.repr, hash=f.hash,
            compare=f.compare, metadata=f.metadata)
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    if not hasattr(cls.__repr__, "__wrapped__"):  # user-written repr
        namespace["__repr__"] = vars(cls)["__repr__"]
    return dataclasses.dataclass(frozen=True, slots=True)(
        type(cls.__name__, (), namespace))


TWINS = {cls: stdlib_twin(cls) for cls in WIRE_CLASSES}


def init_kwargs(obj: Any) -> dict[str, Any]:
    return {f.name: getattr(obj, f.name)
            for f in dataclasses.fields(obj) if f.init}


def outcome(fn, *args, **kwargs):
    """What a call does: its value, or its exception's type and text."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


# ----------------------------------------------------------------------
# Catalogue
# ----------------------------------------------------------------------
def test_the_twins_really_run_the_stdlib_constructor():
    for cls, twin in TWINS.items():
        assert twin.__init__.__code__.co_filename == "<string>", cls


@pytest.mark.parametrize("module", [messages_module, entry_module],
                         ids=lambda m: m.__name__)
def test_no_frozen_slotted_class_is_left_on_the_stdlib_constructor(module):
    found = 0
    for _, cls in inspect.getmembers(module, inspect.isclass):
        if (cls.__module__ != module.__name__
                or not dataclasses.is_dataclass(cls)
                or not cls.__dataclass_params__.frozen):
            continue
        found += 1
        assert "__slots__" in vars(cls), cls
        assert (cls.__init__.__code__.co_filename
                == f"<init {cls.__qualname__}>"), cls
        assert cls in WIRE_CLASSES  # ... and the battery below covers it
    assert found >= 4
    source = inspect.getsource(module)
    assert "dataclass(frozen=True" not in source


# ----------------------------------------------------------------------
# Same constructor as the stdlib's
# ----------------------------------------------------------------------
@each_class
def test_signature_is_the_stdlib_signature(cls):
    twin = TWINS[cls]
    assert inspect.signature(cls) == inspect.signature(twin)
    assert (inspect.signature(cls.__init__)
            == inspect.signature(twin.__init__))
    assert cls.__init__.__qualname__ == twin.__init__.__qualname__
    assert cls.__init__.__module__ == twin.__init__.__module__
    # Constants ride in the exec namespace: nothing but the declared
    # defaults sits in __defaults__ (mc.state._copy_function rebuilds
    # any function it meets that has defaults).
    assert cls.__init__.__defaults__ == twin.__init__.__defaults__
    assert cls.__init__.__kwdefaults__ is None


@each_class
@quick
@given(data=st.data())
def test_builds_what_the_stdlib_constructor_builds(cls, data):
    twin = TWINS[cls]
    kwargs = init_kwargs(data.draw(STRATEGIES[cls]))
    built, expected = cls(**kwargs), twin(**kwargs)
    assert type(built) is cls
    for f in dataclasses.fields(cls):  # memo slots included
        assert getattr(built, f.name) == getattr(expected, f.name), f.name
    assert repr(built) == repr(expected)
    assert outcome(hash, built) == outcome(hash, expected)
    assert built == cls(**kwargs) and expected == twin(**kwargs)
    # Positional and mixed calls, and a call that leans on the defaults.
    values = list(kwargs.values())
    assert cls(*values) == built
    half = len(values) // 2
    assert cls(*values[:half], **dict(list(kwargs.items())[half:])) == built
    required = {f.name: kwargs[f.name] for f in dataclasses.fields(cls)
                if f.init and f.default is dataclasses.MISSING}
    defaulted, expected_defaulted = cls(**required), twin(**required)
    for f in dataclasses.fields(cls):
        assert (getattr(defaulted, f.name)
                == getattr(expected_defaulted, f.name)), f.name


@each_class
@quick
@given(data=st.data())
def test_argument_errors_are_the_stdlib_errors(cls, data):
    twin = TWINS[cls]
    kwargs = init_kwargs(data.draw(STRATEGIES[cls]))
    values = list(kwargs.values())
    for args, kw in (
            ((), {}),                                # everything missing
            ((), dict(list(kwargs.items())[1:])),    # the first missing
            ((), {**kwargs, "no_such_field": 1}),    # unknown keyword
            ((), {**kwargs, "_est_size": 1}),        # memos: not parameters
            ((values[0],), kwargs),                  # duplicate
            ((*values, 0), {}),                      # one too many
    ):
        got, expected = outcome(cls, *args, **kw), outcome(twin, *args, **kw)
        if isinstance(expected, tuple) and expected[0] is TypeError:
            assert got == expected, (args, kw)
        else:  # legal after all (every field defaulted)
            assert type(got) is cls, (args, kw)


# ----------------------------------------------------------------------
# The object is a stdlib frozen instance
# ----------------------------------------------------------------------
@each_class
@quick
@given(data=st.data())
def test_instances_are_frozen_fields_and_memo_slots_alike(cls, data):
    obj = data.draw(STRATEGIES[cls])
    payload_size(obj)  # fill whatever memos the class has
    for f in dataclasses.fields(cls):
        before = getattr(obj, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)
        assert getattr(obj, f.name) is before


@each_class
@quick
@given(data=st.data())
def test_replace_pickle_and_deepcopy_round_trip(cls, data):
    obj = data.draw(STRATEGIES[cls])
    payload_size(obj)
    for clone in (dataclasses.replace(obj),
                  pickle.loads(pickle.dumps(obj)),
                  copy.deepcopy(obj), copy.copy(obj)):
        assert type(clone) is cls
        assert clone == obj and repr(clone) == repr(obj)
        assert payload_size(clone) == payload_size(obj)
    # replace() goes through the constructor: memos start empty.
    replaced = dataclasses.replace(obj)
    for f in dataclasses.fields(cls):
        if not f.init:
            assert getattr(replaced, f.name) is None
    name = next(f.name for f in dataclasses.fields(cls) if f.init)
    swapped = dataclasses.replace(obj, **{name: getattr(obj, name)})
    assert swapped == obj


# ----------------------------------------------------------------------
# The mutable twin is never observable
# ----------------------------------------------------------------------
@frozen_dataclass
class Witness:
    """Records what ``__post_init__`` sees."""

    value: int
    label: str = "w"
    seen_type: Any = None
    seen_frozen: Any = None
    _est_size: int | None = size_memo()

    def __post_init__(self) -> None:
        object.__setattr__(self, "seen_type", type(self))
        try:
            self.value = -1
        except dataclasses.FrozenInstanceError as exc:
            object.__setattr__(self, "seen_frozen", exc)


def test_post_init_runs_last_on_the_frozen_instance():
    witness = Witness(3)
    assert type(witness) is Witness and witness.seen_type is Witness
    assert isinstance(witness.seen_frozen, dataclasses.FrozenInstanceError)
    assert (witness.value, witness.label, witness._est_size) == (3, "w", None)
    assert isinstance(witness, Witness)
    assert type(witness).__mro__ == (Witness, object)


def test_config_payload_normalises_in_post_init(monkeypatch):
    seen = []
    original = ConfigPayload.__post_init__

    def spying(self):
        seen.append(type(self))
        original(self)

    monkeypatch.setattr(ConfigPayload, "__post_init__", spying)
    payload = ConfigPayload(("b", "a"), observers=("z", "y"), version=2)
    assert seen == [ConfigPayload]
    assert payload.members == ("a", "b") and payload.observers == ("y", "z")
    assert payload == ConfigPayload(("a", "b"), 2, ("y", "z"))
    expected = TWINS[ConfigPayload](("b", "a"), observers=("z", "y"),
                                    version=2)
    assert init_kwargs(payload) == init_kwargs(expected)


def test_a_failing_constructor_leaks_no_half_built_twin():
    class Boom(Exception):
        pass

    @frozen_dataclass
    class Fragile:
        value: int

        def __post_init__(self) -> None:
            raise Boom(type(self).__name__)

    with pytest.raises(Boom, match="Fragile"):
        Fragile(1)


# ----------------------------------------------------------------------
# What the generator leaves alone
# ----------------------------------------------------------------------
def test_uncovered_shapes_keep_the_stdlib_constructor():
    @frozen_dataclass
    class WithFactory:
        items: list = dataclasses.field(default_factory=list)

    @frozen_dataclass
    class WithInitVar:
        value: int
        scale: dataclasses.InitVar[int] = 1

        def __post_init__(self, scale: int) -> None:
            object.__setattr__(self, "value", self.value * scale)

    @frozen_dataclass
    class KeywordOnly:
        value: int
        flag: bool = dataclasses.field(default=False, kw_only=True)

    class Base:
        __slots__ = ()

    @frozen_dataclass
    class Derived(Base):
        value: int

    for cls in (WithFactory, WithInitVar, KeywordOnly, Derived):
        assert cls.__init__.__code__.co_filename == "<string>", cls
        assert cls.__dataclass_params__.frozen and "__slots__" in vars(cls)
    assert WithFactory().items == [] and WithFactory().items is not \
        WithFactory().items
    assert WithInitVar(2, scale=3).value == 6
    assert KeywordOnly(1, flag=True).flag is True
    assert Derived(4).value == 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        Derived(4).value = 5


def test_the_stale_memo_guard_still_tells_frozen_from_mutable():
    @frozen_dataclass
    class Memoised:
        value: str
        _est_size: int | None = size_memo()

    @dataclasses.dataclass(slots=True)
    class MutableMemoised:
        value: str
        _est_size: int | None = size_memo()

    try:
        assert payload_size(Memoised("abc")) == payload_size(Memoised("xyz"))
        with pytest.raises(TypeError, match="not frozen=True"):
            payload_size(MutableMemoised("abc"))
    finally:
        for registry in (sizes._SIZERS, sizes._ESTIMATORS,
                         sizes._CLASS_INFO):
            registry.pop(Memoised, None)


# ----------------------------------------------------------------------
# Profiles list every generated function on its own row
# ----------------------------------------------------------------------
def test_a_profile_shows_each_generated_function_separately():
    """``pstats`` keys rows by ``(filename, line, name)``: generated
    functions compiled under one filename overwrite each other's row.
    Constructors, sizers and estimators each carry a per-class
    pseudo-filename instead."""
    import cProfile
    import pstats

    from repro.fastraft.server import FastRaftServer
    from repro.harness.builder import build_cluster
    from repro.smr.kv import KVCommand, KVStateMachine

    cluster = build_cluster(FastRaftServer, n_sites=3, seed=1,
                            bandwidth=1e6, trace_enabled=False,
                            state_machine_factory=KVStateMachine)
    cluster.start_all()
    leader = cluster.run_until_leader()
    client = cluster.add_client(site=leader)
    profiler = cProfile.Profile()
    profiler.enable()
    for i in range(20):
        client.submit(KVCommand.put(f"k{i}", i))
    cluster.run_for(2.0)
    profiler.disable()
    rows = pstats.Stats(profiler).stats
    calls = {(filename, name): ncalls
             for (filename, _, name), (_, ncalls, *_) in rows.items()
             if filename.startswith("<")}
    assert calls["<init LogEntry>", "__init__"] >= 20
    assert calls["<init VoteEntry>", "__init__"] >= 20
    assert calls["<sizer VoteEntry>", "size_of"] >= 20
    assert calls["<estimator LogEntry>", "size_of"] >= 1
    generated = [filename for filename, name in calls
                 if name in ("__init__", "size_of")]
    assert len(generated) == len(set(generated)) >= 8  # one row each
