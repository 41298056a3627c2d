"""Tests for quorum arithmetic and configurations."""

import copy
import dataclasses
import pickle

import pytest

from repro.consensus.config import Configuration
from repro.consensus.quorum import (
    classic_quorum_size,
    fast_quorum_size,
    has_classic_quorum,
    has_fast_quorum,
    quorum_intersection_ok,
)
from repro.errors import ConfigurationError


class TestQuorumSizes:
    def test_classic_majority(self):
        assert classic_quorum_size(1) == 1
        assert classic_quorum_size(2) == 2
        assert classic_quorum_size(3) == 2
        assert classic_quorum_size(4) == 3
        assert classic_quorum_size(5) == 3
        assert classic_quorum_size(20) == 11

    def test_fast_quorum_paper_values(self):
        # ceil(3M/4); the paper's 5-site example gives 4.
        assert fast_quorum_size(5) == 4
        assert fast_quorum_size(4) == 3
        assert fast_quorum_size(3) == 3
        assert fast_quorum_size(20) == 15

    def test_fast_at_least_classic(self):
        for m in range(1, 100):
            assert fast_quorum_size(m) >= classic_quorum_size(m)

    def test_intersection_condition_holds_for_all_sizes(self):
        """Zhao's plurality condition holds for ceil(3M/4) at every M."""
        for m in range(1, 500):
            assert quorum_intersection_ok(m), f"fails at M={m}"

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            classic_quorum_size(0)
        with pytest.raises(ConfigurationError):
            fast_quorum_size(-1)


class TestConfiguration:
    def test_members_sorted_unique(self):
        config = Configuration(("c", "a", "b"))
        assert config.members == ("a", "b", "c")

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration(())

    def test_quorum_properties(self):
        config = Configuration(("a", "b", "c", "d", "e"))
        assert config.size == 5
        assert config.classic_quorum == 3
        assert config.fast_quorum == 4

    def test_is_classic_quorum_with_set(self):
        config = Configuration(("a", "b", "c", "d", "e"))
        assert has_classic_quorum(config, {"a", "b", "c"})
        assert not has_classic_quorum(config, {"a", "b"})
        # non-members do not count
        assert not has_classic_quorum(config, {"a", "b", "zz"})

    def test_is_quorum_with_int(self):
        config = Configuration(("a", "b", "c", "d", "e"))
        assert has_classic_quorum(config, 3)
        assert has_fast_quorum(config, 4)
        assert not has_fast_quorum(config, 3)

    def test_quorum_checks_count_distinct_members_of_any_iterable(self):
        """Sets, frozensets, lists with duplicates, tuples, dict views:
        a voter counts once, a non-member never."""
        config = Configuration(("a", "b", "c", "d", "e"), observers=("o",))
        for make in (set, frozenset, list, tuple, dict.fromkeys):
            assert has_classic_quorum(config, make(["a", "b", "c", "o"]))
            assert not has_classic_quorum(config, make(["a", "b", "o", "zz"]))
            assert has_fast_quorum(config, make(["a", "b", "c", "d"]))
            assert not has_fast_quorum(config, make(["a", "b", "c", "o"]))
        assert not has_classic_quorum(config, ["a", "a", "a", "b"])
        assert not has_fast_quorum(config, ["a", "b", "c", "c", "c"])
        assert not has_classic_quorum(config, set())

    def test_derived_sizes_are_not_fields(self):
        """``size`` / ``classic_quorum`` / ``fast_quorum`` are computed
        once per configuration, outside equality, hashing, repr, replace
        and pickling's field view."""
        config = Configuration(("b", "a", "c"), observers=("o",))
        assert [f.name for f in dataclasses.fields(config)] == [
            "members", "observers"]
        assert (config.size, config.classic_quorum, config.fast_quorum) == (
            3, classic_quorum_size(3), fast_quorum_size(3))
        same = Configuration(("a", "b", "c"), ("o",))
        assert config == same and hash(config) == hash(same)
        assert repr(config) == (
            "Configuration(['a', 'b', 'c'], observers=['o'])")
        grown = dataclasses.replace(config, members=("a", "b", "c", "d"))
        assert (grown.size, grown.classic_quorum) == (4, 3)
        assert has_classic_quorum(grown, {"a", "b", "d"})
        for clone in (pickle.loads(pickle.dumps(config)),
                      copy.deepcopy(config)):
            assert clone == config and clone.size == 3
            assert has_classic_quorum(clone, ["a", "c"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.size = 7

    def test_contains(self):
        config = Configuration(("a", "b"))
        assert "a" in config
        assert "z" not in config

    def test_others(self):
        config = Configuration(("a", "b", "c"))
        assert config.others("b") == ("a", "c")

