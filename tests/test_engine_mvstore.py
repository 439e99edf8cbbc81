"""Unit tests for the multi-version store: chains, snapshots, GC, sharding."""

import pytest

from repro.engine.mvstore import (
    MultiVersionDataStore,
    ShardedMultiVersionDataStore,
    VersionRecord,
    ensure_multiversion,
)
from repro.engine.storage import DataStore, StorageError
from repro.engine.workloads import partition_of


class TestVersionChains:
    def test_initial_versions(self):
        store = MultiVersionDataStore({"a": 1, "b": 2})
        assert store.read("a") == 1
        record = store.read_as_of("a", 0)
        assert record == VersionRecord(value=1, begin_ts=0, end_ts=None, writer=None)
        assert len(store) == 2
        assert "a" in store and "c" not in store

    def test_unknown_key_raises(self):
        store = MultiVersionDataStore({"a": 1})
        # an unknown key is "never initialised", not "no version visible"
        with pytest.raises(StorageError, match="'missing' was never initialised"):
            store.read_as_of("missing", 10)
        with pytest.raises(StorageError, match="never initialised"):
            store.read("missing")

    def test_install_appends_and_splices_intervals(self):
        store = MultiVersionDataStore({"a": 1})
        store.install("a", 2, 5, writer=10)
        store.install("a", 3, 9, writer=11)
        chain = store.version_chain("a")
        assert [(v.begin_ts, v.end_ts) for v in chain] == [(0, 5), (5, 9), (9, None)]
        assert store.read_as_of("a", 4).value == 1
        assert store.read_as_of("a", 5).value == 2
        assert store.read_as_of("a", 100).value == 3
        assert store.version_order("a") == (None, 10, 11)

    def test_install_into_the_past(self):
        """MVTO installs at start timestamps, possibly below newer versions."""
        store = MultiVersionDataStore({"a": 1})
        store.install("a", 9, 8, writer=2)
        store.install("a", 5, 4, writer=1)  # older writer commits later
        assert [(v.value, v.begin_ts, v.end_ts) for v in store.version_chain("a")] == [
            (1, 0, 4),
            (5, 4, 8),
            (9, 8, None),
        ]
        assert store.read_as_of("a", 6).value == 5

    def test_duplicate_timestamp_rejected(self):
        store = MultiVersionDataStore({"a": 1})
        store.install("a", 2, 3, writer=1)
        with pytest.raises(ValueError, match="already exists"):
            store.install("a", 99, 3, writer=2)

    def test_read_as_of_before_first_version_raises(self):
        store = MultiVersionDataStore({"a": 1}, initial_ts=10)
        with pytest.raises(StorageError):
            store.read_as_of("a", 5)

    def test_snapshot_as_of_is_consistent(self):
        store = MultiVersionDataStore({"a": 1, "b": 1})
        store.install("a", 2, 3, writer=1)
        store.install("b", 2, 7, writer=2)
        assert store.snapshot_as_of(5) == {"a": 2, "b": 1}
        assert store.snapshot() == {"a": 2, "b": 2}


class TestGarbageCollection:
    def test_collects_only_superseded_below_watermark(self):
        store = MultiVersionDataStore({"a": 0})
        for ts, writer in ((2, 1), (4, 2), (6, 3)):
            store.install("a", ts * 10, ts, writer=writer)
        dropped = store.collect_garbage(5)
        # versions ending at 2 and 4 are invisible at watermark 5 and beyond
        assert dropped == 2
        assert [v.begin_ts for v in store.version_chain("a")] == [4, 6]
        assert store.read_as_of("a", 5).value == 40
        assert store.versions_collected == 2

    def test_latest_version_always_survives(self):
        store = MultiVersionDataStore({"a": 0})
        store.install("a", 1, 1, writer=1)
        assert store.collect_garbage(100) == 1
        assert store.read("a") == 1

    def test_version_counters_survive_gc(self):
        store = MultiVersionDataStore({"a": 0})
        store.install("a", 1, 1, writer=1)
        store.install("a", 2, 2, writer=2)
        store.collect_garbage(10)
        assert store.total_versions_written() == 2
        assert store.version_number("a") == 2
        assert store.total_versions() == 1


class TestDataStoreFacade:
    def test_plain_write_installs_above_latest(self):
        store = MultiVersionDataStore({"a": 1})
        store.write("a", 5, writer=42)
        assert store.read("a") == 5
        assert store.read_version("a").writer == 42
        assert store.version_number("a") == 1
        assert store.latest("a").begin_ts == 1

    def test_apply_writes_batch(self):
        store = MultiVersionDataStore({"a": 1, "b": 2})
        store.apply_writes({"a": 10, "b": 20}, writer=7)
        assert store.snapshot() == {"a": 10, "b": 20}

    def test_write_creates_new_key(self):
        store = MultiVersionDataStore()
        store.write("fresh", 9)
        assert store.read("fresh") == 9

    def test_copy_is_independent(self):
        store = MultiVersionDataStore({"a": 1})
        store.install("a", 2, 4, writer=1)
        clone = store.copy()
        clone.install("a", 3, 8, writer=2)
        assert len(store.version_chain("a")) == 2
        assert len(clone.version_chain("a")) == 3

    def test_ensure_multiversion_wraps_plain_store(self):
        plain = DataStore({"a": 1})
        wrapped = ensure_multiversion(plain)
        assert wrapped is not plain
        assert wrapped.read_as_of("a", 0).value == 1
        mv = MultiVersionDataStore({"a": 1})
        assert ensure_multiversion(mv) is mv


class TestShardedMultiVersion:
    def test_shards_answer_snapshot_reads(self):
        initial = {f"p{p}:k{i}": 0 for p in range(2) for i in range(4)}
        store = ShardedMultiVersionDataStore(
            initial, num_shards=2, shard_of=partition_of
        )
        store.install("p0:k0", 5, 3, writer=1)
        assert store.read_as_of("p0:k0", 2).value == 0
        assert store.read_as_of("p0:k0", 3).value == 5
        assert store.version_order("p0:k0") == (None, 1)
        assert store.latest("p1:k0").value == 0

    def test_gc_spans_all_shards(self):
        store = ShardedMultiVersionDataStore({"a": 0, "b": 0}, num_shards=2)
        store.install("a", 1, 1, writer=1)
        store.install("b", 1, 1, writer=1)
        assert store.collect_garbage(10) == 2
        assert store.total_versions() == 2  # one surviving version per key

    def test_copy_preserves_multiversion_shards(self):
        store = ShardedMultiVersionDataStore({"a": 0}, num_shards=2)
        clone = store.copy()
        clone.install("a", 1, 1, writer=1)
        assert len(store.version_chain("a")) == 1
        assert len(clone.version_chain("a")) == 2
        assert isinstance(clone, ShardedMultiVersionDataStore)


class TestOneProtocolOverTheFacade:
    """A sharded store stands in for a plain one: one protocol instance can
    run over the whole facade, not only one per shard."""

    @staticmethod
    def _batch():
        from repro.engine.workloads import WorkloadConfig, partitioned_workload

        return partitioned_workload(
            num_transactions=24,
            config=WorkloadConfig(num_keys=16, read_fraction=0.5),
            seed=4,
            num_partitions=2,
        )

    def test_single_version_protocol_commits_through_the_facade(self):
        from repro.engine.protocols import StrictTwoPhaseLocking
        from repro.engine.runtime import run_batch
        from repro.engine.storage import ShardedDataStore

        initial, specs = self._batch()
        store = ShardedDataStore(initial, num_shards=2, shard_of=partition_of)
        result = run_batch(StrictTwoPhaseLocking, store, specs, seed=1, max_attempts=200)
        assert result.committed == 24
        assert result.committed_serializable
        # apply_writes went through the facade to the owning shards
        assert sorted(store.keys()) == sorted(initial)
        assert store.snapshot() == result.store_snapshot != initial

    @pytest.mark.parametrize("name", ["mvto", "si"])
    def test_multiversion_protocol_runs_over_the_facade(self, name):
        from repro.engine.protocols import (
            MultiVersionTimestampOrdering,
            SnapshotIsolation,
        )
        from repro.engine.runtime import run_batch

        initial, specs = self._batch()
        store = ShardedMultiVersionDataStore(initial, num_shards=2, shard_of=partition_of)
        store.install("p0:k0", 7, 3, writer=99)
        factory = {
            # gc_interval=4 reaches MVTO's rts pruning, which walks store.keys()
            "mvto": lambda s: MultiVersionTimestampOrdering(s, gc_interval=4),
            "si": lambda s: SnapshotIsolation(s, serializable=True),
        }[name]
        protocol = factory(store)
        # the protocol starts above the newest version on any shard
        assert store.max_timestamp() == 3
        assert protocol.store is store
        result = run_batch(lambda s: protocol, store, specs, seed=1, max_attempts=200)
        assert result.committed == 24
        assert result.committed_serializable
        assert store.max_timestamp() > 3
