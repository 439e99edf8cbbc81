"""Unit tests for the versioned key-value store."""

import pickle

import pytest

from repro.engine.storage import DataStore, StorageError, Version


class TestDataStore:
    def test_initialisation_and_read(self):
        store = DataStore({"a": 1, "b": 2})
        assert store.read("a") == 1
        assert store.read_version("b") == Version(value=2, version=0, writer=None)
        assert len(store) == 2
        assert "a" in store and "c" not in store

    def test_read_of_unknown_key_raises(self):
        store = DataStore({"a": 1})
        for read in (store.read, store.read_version):
            with pytest.raises(StorageError, match="'missing' was never initialised"):
                read("missing")

    def test_write_bumps_version_and_records_writer(self):
        store = DataStore({"a": 1})
        version = store.write("a", 5, writer=42)
        assert version.version == 1
        assert version.writer == 42
        assert store.read("a") == 5
        assert store.version_number("a") == 1

    def test_write_of_new_key_starts_at_version_zero(self):
        store = DataStore()
        assert store.write("fresh", 9).version == 0

    def test_apply_writes_is_atomic_batch(self):
        store = DataStore({"a": 1, "b": 2})
        store.apply_writes({"a": 10, "b": 20}, writer=7)
        assert store.snapshot() == {"a": 10, "b": 20}
        assert store.read_version("a").writer == 7

    def test_total_versions_written(self):
        store = DataStore({"a": 0})
        store.write("a", 1)
        store.write("a", 2)
        assert store.total_versions_written() == 2

    def test_copy_is_independent(self):
        store = DataStore({"a": 1})
        clone = store.copy()
        clone.write("a", 99)
        assert store.read("a") == 1
        assert clone.read("a") == 99

    def test_snapshot_is_plain_dict(self):
        store = DataStore({"a": 1})
        snap = store.snapshot()
        snap["a"] = 1000
        assert store.read("a") == 1


class TestPickling:
    def test_a_store_survives_a_pickle_round_trip(self):
        """Versions refuse setattr, so they pickle through their
        constructor: values, version numbers and writers all survive."""
        store = DataStore({"a": 1, "b": 2})
        store.write("a", 10, writer=7)
        copy = pickle.loads(pickle.dumps(store))
        assert copy.snapshot() == {"a": 10, "b": 2}
        assert copy.read_version("a") == Version(10, 1, 7)
        with pytest.raises(AttributeError):
            copy.read_version("a").value = 0


class TestShardedConstructionValidation:
    """Satellite: a caller-supplied shard_of must respect num_shards at
    construction time (checked against every initial key), not on first
    use."""

    def test_out_of_range_shard_of_fails_at_construction(self):
        from repro.engine.storage import ShardedDataStore

        with pytest.raises(ValueError, match="out of range"):
            ShardedDataStore({"a": 1}, num_shards=2, shard_of=lambda key: 7)

    def test_negative_shard_index_fails_at_construction(self):
        from repro.engine.storage import ShardedDataStore

        with pytest.raises(ValueError, match="out of range"):
            ShardedDataStore({"a": 1}, num_shards=2, shard_of=lambda key: -1)

    def test_shard_count_below_one_rejected(self):
        from repro.engine.storage import ShardedDataStore

        with pytest.raises(ValueError, match="num_shards"):
            ShardedDataStore({"a": 1}, num_shards=0)

    def test_non_callable_shard_of_rejected(self):
        from repro.engine.storage import ShardedDataStore

        with pytest.raises(TypeError, match="callable"):
            ShardedDataStore({"a": 1}, num_shards=2, shard_of=3)

    def test_valid_custom_shard_of_accepted_and_bounded_later(self):
        from repro.engine.storage import ShardedDataStore

        store = ShardedDataStore(
            {"a0": 1, "a1": 2}, num_shards=2, shard_of=lambda key: int(key[-1])
        )
        assert store.read("a0") == 1
        # previously unseen keys are still range-checked on access
        with pytest.raises(ValueError, match="out of range"):
            store.shard_of("a7")

    def test_shard_factory_builds_custom_shards(self):
        from repro.engine.mvstore import MultiVersionDataStore
        from repro.engine.storage import ShardedDataStore

        store = ShardedDataStore(
            {"a": 1, "b": 2},
            num_shards=2,
            shard_factory=MultiVersionDataStore,
        )
        assert all(isinstance(s, MultiVersionDataStore) for s in store.shards())
        assert store.snapshot() == {"a": 1, "b": 2}


class TestGroupSpecs:
    """``group_specs`` routes each distinct key of a batch once."""

    def _specs(self):
        from repro.engine.operations import (
            TransactionSpec,
            increment_op,
            read_op,
            write_op,
        )

        return [
            TransactionSpec([read_op("a0"), increment_op("b0")], name="even"),
            TransactionSpec([write_op("a1", 5)], name="odd"),
            TransactionSpec([increment_op("b0"), read_op("a0")], name="even-again"),
        ]

    def test_groups_by_footprint_and_routes_each_key_once(self):
        from repro.engine.storage import ShardedDataStore

        routed = []

        def shard_of(key):
            routed.append(key)
            return int(key[-1])

        store = ShardedDataStore(
            {"a0": 0, "b0": 0, "a1": 0}, num_shards=2, shard_of=shard_of
        )
        del routed[:]
        specs = self._specs()
        groups = store.group_specs(specs)
        assert sorted(routed) == ["a0", "a1", "b0"]
        assert groups == {0: [specs[0], specs[2]], 1: [specs[1]]}
        # the memo lives for one call: a second call asks again
        del routed[:]
        store.group_specs(specs)
        assert sorted(routed) == ["a0", "a1", "b0"]
        # the footprint is reads and writes alike, exactly as before
        for index, group in groups.items():
            for spec in group:
                touched = set(spec.keys_read()) | set(spec.keys_written())
                assert {store.shard_of(key) for key in touched} == {index}

    def test_spanning_spec_is_rejected_by_name(self):
        from repro.engine.operations import TransactionSpec, read_op, write_op
        from repro.engine.storage import ShardedDataStore

        store = ShardedDataStore(
            {"a0": 0, "a1": 0}, num_shards=2, shard_of=lambda key: int(key[-1])
        )
        spanning = TransactionSpec([read_op("a0"), write_op("a1", 1)], name="both")
        with pytest.raises(ValueError, match=r"'both' spans shards \[0, 1\]"):
            store.group_specs([spanning])
