"""Tests for stable storage crash/recovery semantics."""

import pytest

from repro.errors import StorageError
from repro.storage.stable import StableStore, StorageFabric


class TestStableStore:
    def test_set_get(self):
        store = StableStore("n1")
        store.set("term", 3)
        assert store.get("term") == 3

    def test_get_default(self):
        store = StableStore("n1")
        assert store.get("missing", 7) == 7
        assert store.get("missing") is None

    def test_contains(self):
        store = StableStore("n1")
        store.set("x", 1)
        assert "x" in store
        assert "y" not in store

    def test_write_count(self):
        store = StableStore("n1")
        store.set("a", 1)
        store.set("a", 2)
        assert store.write_count == 2

    def test_touch_counts_in_place_mutation(self):
        """In-place mutations of stored mutable objects must be charged
        to the write counter via touch() so fsync-cost reports stay
        honest."""
        store = StableStore("n1")
        log = [1]
        store.set("log", log)
        assert store.write_count == 1
        log.append(2)          # durable by reference, but...
        store.touch("log")     # ...the mutation site must declare it
        assert store.write_count == 2
        assert store.get("log") == [1, 2]

    def test_touch_unwritten_key_raises(self):
        store = StableStore("n1")
        with pytest.raises(StorageError):
            store.touch("log")

    def test_mutable_value_shared_by_reference(self):
        """The conservative durability model: in-place mutations of stored
        objects are immediately durable."""
        store = StableStore("n1")
        log = [1, 2]
        store.set("log", log)
        log.append(3)
        assert store.get("log") == [1, 2, 3]


class TestStorageFabric:
    def test_store_survives_node_object(self):
        fabric = StorageFabric()
        fabric.store_for("n1").set("term", 9)
        # A "recovered" node fetches the same store by name.
        assert fabric.store_for("n1").get("term") == 9

    def test_distinct_stores_per_name(self):
        fabric = StorageFabric()
        fabric.store_for("n1").set("x", 1)
        assert fabric.store_for("n2").get("x") is None

    def test_contains(self):
        fabric = StorageFabric()
        fabric.store_for("n1")
        assert "n1" in fabric
        assert "n2" not in fabric
