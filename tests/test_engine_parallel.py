"""Tests for process-parallel shard execution and the sharded plumbing.

Covers the ISSUE-5 satellites alongside the tentpole's second half:

* :class:`ParallelShardRunner` parity — identical per-shard results to
  the serial :func:`run_sharded_batch` at every worker count, because
  per-shard seeds and fault plans are derived identically;
* ``fault_spec``/``metrics`` plumbed through ``run_sharded_batch``
  (with fault injection actually firing under sharding);
* the new :class:`ShardedExecutionResult` aggregates
  (``aborted_attempts``, ``operations_issued``, ``abort_rate``).
"""

import multiprocessing
import os
import pickle
import time
from multiprocessing.connection import Connection

import pytest

from repro.engine.faults import FaultSpec
from repro.engine.metrics import Metrics
from repro.engine.mvstore import ShardedMultiVersionDataStore
from repro.engine.operations import (
    TransactionSpec,
    increment_op,
    read_op,
    transfer_transaction,
    update_op,
)
from repro.engine.parallel import ParallelShardRunner, ShardWorkerError
from repro.engine.protocols.registry import PROTOCOL_ENTRIES
from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking
from repro.engine.runtime import run_sharded_batch
from repro.engine.storage import ShardedDataStore
from repro.engine.workloads import (
    WorkloadConfig,
    hotspot_queue_workload,
    partition_of,
    partitioned_workload,
)
from repro.obs.trace import TraceRecorder


def _partitioned(num_transactions=40, seed=6, num_partitions=4):
    initial, specs = partitioned_workload(
        num_transactions=num_transactions,
        config=WorkloadConfig(num_keys=32, read_fraction=0.4),
        seed=seed,
        num_partitions=num_partitions,
    )
    return initial, specs


def _store(initial, num_partitions=4):
    return ShardedDataStore(initial, num_shards=num_partitions, shard_of=partition_of)


def _assert_same_per_shard(parallel, serial):
    assert set(parallel.per_shard) == set(serial.per_shard)
    for index, shard_result in parallel.per_shard.items():
        baseline = serial.per_shard[index]
        assert shard_result.per_transaction == baseline.per_transaction, index
        assert shard_result.blocks == baseline.blocks, index
        assert shard_result.restarts == baseline.restarts, index
        assert shard_result.store_snapshot == baseline.store_snapshot, index
    assert parallel.store_snapshot == serial.store_snapshot


def _view(result):
    """Everything a shard's run reports, for whole-run equality."""
    return {
        "per_transaction": result.per_transaction,
        "blocks": result.blocks,
        "restarts": result.restarts,
        "aborted_attempts": result.aborted_attempts,
        "snapshot": result.store_snapshot,
        "serializable": result.committed_serializable,
        "counters": result.metrics.snapshot(),
    }


def _mixed_batch():
    """Partitioned updates, lambda updates and read-only scans declared
    read-only, left to detection and opted out, on 4 partitions."""
    initial, specs = _partitioned(num_transactions=32)
    specs = list(specs)
    for p in range(4):
        key = f"p{p}:k1"
        specs.append(
            TransactionSpec(
                [read_op(key), update_op(key, lambda reads, _k=key: reads[_k] * 2)],
                name=f"double{p}",
            )
        )
        scan = [read_op(f"p{p}:k{i}") for i in range(4)]
        for declared in (True, None, False):
            specs.append(TransactionSpec(scan, name=f"scan{p}-{declared}", read_only=declared))
    return initial, specs


class TestParallelShardRunner:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial_sharded_run_exactly(self, workers):
        initial, specs = _partitioned()
        serial = run_sharded_batch(
            StrictTwoPhaseLocking, _store(initial), specs, seed=1
        )
        parallel = ParallelShardRunner(workers=workers).run(
            StrictTwoPhaseLocking, _store(initial), specs, seed=1
        )
        assert set(parallel.per_shard) == set(serial.per_shard)
        for index, shard_result in parallel.per_shard.items():
            baseline = serial.per_shard[index]
            assert shard_result.per_transaction == baseline.per_transaction
            assert shard_result.blocks == baseline.blocks
            assert shard_result.restarts == baseline.restarts
            assert shard_result.store_snapshot == baseline.store_snapshot
        assert parallel.store_snapshot == serial.store_snapshot
        assert parallel.committed == serial.committed == len(specs)
        assert parallel.committed_serializable

    def test_specs_are_picklable(self):
        """Specs from the shipped workload builders pickle (workers do not
        need it; a caller storing a batch does)."""
        _, specs = _partitioned(num_transactions=5)
        restored = pickle.loads(pickle.dumps(specs))
        assert [spec.name for spec in restored] == [spec.name for spec in specs]
        # transforms still compute: an increment applied to a read buffer
        op = next(op for spec in restored for op in spec.operations if op.writes)
        assert op.transform({op.key: 41}) == 42

    def test_ops_with_picklable_transforms_stay_hashable(self):
        """An Operation is a ``(kind, key, transform)`` triple hashing all
        three: the callable transform classes must hash consistently with
        their __eq__ (the lambdas they replaced hashed by identity)."""
        from repro.engine.operations import write_op

        a, b = increment_op("k", 2), increment_op("k", 2)
        assert a == b and hash(a.transform) == hash(b.transform)
        assert len({a, b}) == 1
        assert len({write_op("k", 1), write_op("k", 1), write_op("k", 2)}) == 2

    def test_closure_specs_run_fine_in_process(self):
        """With one worker nothing crosses a process boundary: the caller
        runs closure-built specs itself."""
        initial, _ = _partitioned()
        specs = [
            TransactionSpec(
                [update_op("p0:k0", lambda reads: reads["p0:k0"] + 1)],
                name="closure",
            )
        ]
        result = ParallelShardRunner(workers=1).run(
            StrictTwoPhaseLocking, _store(initial), specs, seed=0
        )
        assert result.committed == 1

    def test_cross_shard_transactions_are_rejected(self):
        initial, _ = _partitioned()
        cross = TransactionSpec(
            [increment_op("p0:k0"), increment_op("p1:k0")], name="cross"
        )
        with pytest.raises(ValueError, match="spans shards"):
            ParallelShardRunner(workers=2).run(
                StrictTwoPhaseLocking, _store(initial), [cross], seed=0
            )

    def test_multiversion_protocols_run_in_workers(self):
        """MV factories wrap plain shards via ensure_multiversion; they
        must do so on a child's copy of its shard store too."""
        initial, specs = _partitioned(num_transactions=24)
        entry = PROTOCOL_ENTRIES["mvto"]
        serial = run_sharded_batch(entry.factory, _store(initial), specs, seed=2)
        parallel = ParallelShardRunner(workers=2).run(
            entry.factory, _store(initial), specs, seed=2
        )
        assert parallel.committed == serial.committed
        assert parallel.store_snapshot == serial.store_snapshot
        for index, shard_result in parallel.per_shard.items():
            assert (
                shard_result.per_transaction
                == serial.per_shard[index].per_transaction
            )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_closure_built_batches_match_serial(self, workers):
        """Workers inherit the batch, nothing in it is pickled: lambda
        transforms, ``transfer_transaction``'s closures and a lambda
        protocol factory run in workers exactly as in the serial run."""
        initial, _ = _partitioned()
        specs = [
            TransactionSpec(
                [update_op(f"p{p}:k0", lambda reads, _k=f"p{p}:k0": reads[_k] + 1)],
                name=f"closure{p}",
            )
            for p in range(4)
        ]
        specs += [
            transfer_transaction(f"p{p}:k0", f"p{p}:k1", 1, name=f"transfer{p}")
            for p in range(4)
        ]
        factory = lambda store: StrictTwoPhaseLocking(store)  # noqa: E731
        serial = run_sharded_batch(factory, _store(initial), specs, seed=0)
        parallel = ParallelShardRunner(workers=workers).run(
            factory, _store(initial), specs, seed=0
        )
        _assert_same_per_shard(parallel, serial)
        assert parallel.committed == len(specs)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_multiversion_store_runs_in_workers(self, workers):
        """Its ``shard_factory`` is a lambda, so this used to fail at
        ``workers >= 2`` before any worker ran."""
        initial, specs = _partitioned(num_transactions=24)
        entry = PROTOCOL_ENTRIES["mvto"]

        def store():
            return ShardedMultiVersionDataStore(
                initial, num_shards=4, shard_of=partition_of
            )

        serial = run_sharded_batch(entry.factory, store(), specs, seed=2)
        parallel = ParallelShardRunner(workers=workers).run(
            entry.factory, store(), specs, seed=2
        )
        _assert_same_per_shard(parallel, serial)
        assert parallel.committed == len(specs)

    def test_deterministic_protocol_matches_serial_through_workers(self):
        """``det-slot`` is told each transaction's read and write set at
        begin: the sets a worker derives from the inherited program must be
        the ones the spec declares, or slots (and blocks) move."""
        initial, specs = _partitioned(num_transactions=48)
        entry = PROTOCOL_ENTRIES["det-slot"]
        serial = run_sharded_batch(entry.factory, _store(initial), specs, seed=3)
        parallel = ParallelShardRunner(workers=2).run(
            entry.factory, _store(initial), specs, seed=3
        )
        _assert_same_per_shard(parallel, serial)
        assert parallel.committed == len(specs)
        assert parallel.committed_serializable

    def test_read_only_declarations_survive_the_trip(self):
        """MVTO serves a transaction on the snapshot fast path iff its
        spec says it is read-only: declared scans and undeclared
        write-free programs take it, ``read_only=False`` opts out."""
        initial, updates = _partitioned(num_transactions=24)
        specs = list(updates)
        for p in range(4):
            scan = [read_op(f"p{p}:k{i}") for i in range(6)]
            specs.append(TransactionSpec(scan, name=f"scan{p}", read_only=True))
            specs.append(TransactionSpec(scan, name=f"detected{p}"))
            specs.append(TransactionSpec(scan, name=f"optout{p}", read_only=False))
        entry = PROTOCOL_ENTRIES["mvto"]
        serial = run_sharded_batch(entry.factory, _store(initial), specs, seed=5)
        parallel = ParallelShardRunner(workers=2).run(
            entry.factory, _store(initial), specs, seed=5
        )
        _assert_same_per_shard(parallel, serial)
        fast = parallel.merged_metrics().count("kernel.readonly_fastpath")
        assert fast == serial.merged_metrics().count("kernel.readonly_fastpath")
        # every declared and every detected scan, and no opt-out (the
        # partitioned updates may add write-free programs of their own)
        write_free = sum(1 for spec in updates if spec.is_read_only)
        assert fast == 8 + write_free

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_ENTRIES))
    def test_every_protocol_matches_serial_through_workers(self, protocol):
        """Under every registered protocol a forked worker's run of its
        shard reports exactly what the in-process run does: outcomes,
        blocks, restarts, aborts, state and counters."""
        initial, specs = _mixed_batch()
        factory = PROTOCOL_ENTRIES[protocol].factory
        kwargs = dict(interleaving="random", seed=11, max_attempts=500)
        serial = run_sharded_batch(factory, _store(initial), specs, **kwargs)
        parallel = ParallelShardRunner(workers=2).run(
            factory, _store(initial), specs, **kwargs
        )
        assert set(parallel.per_shard) == set(serial.per_shard) == {0, 1, 2, 3}
        for index, shard_result in parallel.per_shard.items():
            assert _view(shard_result) == _view(serial.per_shard[index]), index
        assert parallel.store_snapshot == serial.store_snapshot
        assert parallel.committed == serial.committed

    @pytest.mark.parametrize("workers", [2, 4])
    def test_hotspot_queue_batch_matches_serial(self, workers):
        """The benchmark's shard-par shape (single-key blind-write
        transactions, one hot key per shard), scaled down."""
        initial, specs = hotspot_queue_workload(
            num_transactions=60,
            ops_per_transaction=6,
            num_hot=4,
            num_cold=16,
            zipf_theta=0.0,
            seed=0,
        )

        def store():
            return ShardedDataStore(initial, num_shards=4, shard_of=_queue_shard)

        serial = run_sharded_batch(StrictTwoPhaseLocking, store(), specs, seed=0)
        parallel = ParallelShardRunner(workers=workers).run(
            StrictTwoPhaseLocking, store(), specs, seed=0
        )
        _assert_same_per_shard(parallel, serial)
        assert parallel.committed == len(specs)

    def test_merged_metrics_available_from_workers(self):
        initial, specs = _partitioned()
        registry = Metrics()
        result = ParallelShardRunner(workers=2).run(
            StrictTwoPhaseLocking, _store(initial), specs, seed=1, metrics=registry
        )
        assert registry.count("protocol.commits") == result.committed
        assert result.merged_metrics().count("protocol.commits") == result.committed

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ParallelShardRunner(workers=0)

    @pytest.mark.parametrize(
        "argument, match",
        [
            ({"interleaving": "bogus"}, "interleaving must be"),
            ({"max_concurrent": 0}, "max_concurrent must be"),
            ({"max_attempts": 0}, "max_attempts must be"),
        ],
        ids=["interleaving", "max_concurrent", "max_attempts"],
    )
    def test_bad_run_arguments_fail_before_any_pool(self, monkeypatch, argument, match):
        """A plain ``ValueError`` in the caller, not a ``ShardWorkerError``
        from a child forked for nothing."""
        monkeypatch.setattr(os, "fork", _no_fork)
        initial, specs = _partitioned()
        with pytest.raises(ValueError, match=match) as excinfo:
            ParallelShardRunner(workers=2).run(
                StrictTwoPhaseLocking, _store(initial), specs, seed=0, **argument
            )
        assert type(excinfo.value) is ValueError

    @pytest.mark.parametrize(
        "argument, match",
        [
            ({"interleaving": "bogus"}, "interleaving must be"),
            ({"max_concurrent": 0}, "max_concurrent must be"),
            ({"max_attempts": 0}, "max_attempts must be"),
            ({"max_attempts": -3}, "max_attempts must be"),
        ],
        ids=["interleaving", "max_concurrent", "max_attempts", "negative_max_attempts"],
    )
    def test_bad_run_arguments_fail_in_process_too(self, argument, match):
        """With one worker the shards run here, but a bad argument is
        still the caller's ``ValueError``, not a shard's failure."""
        initial, specs = _partitioned()
        with pytest.raises(ValueError, match=match) as excinfo:
            ParallelShardRunner(workers=1).run(
                StrictTwoPhaseLocking, _store(initial), specs, seed=0, **argument
            )
        assert type(excinfo.value) is ValueError

    def test_without_fork_the_shards_run_in_process(self, monkeypatch):
        initial, specs = _partitioned()
        pooled = ParallelShardRunner(workers=2).run(
            StrictTwoPhaseLocking, _store(initial), specs, seed=1
        )
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        monkeypatch.setattr(os, "fork", _no_fork)
        in_process = ParallelShardRunner(workers=2).run(
            StrictTwoPhaseLocking, _store(initial), specs, seed=1
        )
        _assert_same_per_shard(in_process, pooled)
        assert in_process.committed == pooled.committed == len(specs)

    @pytest.mark.parametrize("batch", ["multiversion", "closure_built"])
    def test_without_fork_any_batch_runs_in_process(self, monkeypatch, batch):
        """Without fork the caller runs what a child runs: a sharded
        multi-version store, lambda transforms and a lambda factory."""
        initial, specs = _partitioned(num_transactions=24)
        if batch == "multiversion":
            factory = PROTOCOL_ENTRIES["mvto"].factory

            def store():
                return ShardedMultiVersionDataStore(
                    initial, num_shards=4, shard_of=partition_of
                )

        else:
            factory = lambda store: StrictTwoPhaseLocking(store)  # noqa: E731
            specs = [
                TransactionSpec(
                    [update_op(f"p{p}:k0", lambda reads, _k=f"p{p}:k0": reads[_k] + 1)],
                    name=f"closure{p}",
                )
                for p in range(4)
            ] + [
                transfer_transaction(f"p{p}:k0", f"p{p}:k1", 1, name=f"transfer{p}")
                for p in range(4)
            ]

            def store():
                return _store(initial)

        pooled = ParallelShardRunner(workers=2).run(factory, store(), specs, seed=2)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        monkeypatch.setattr(os, "fork", _no_fork)
        in_process = ParallelShardRunner(workers=2).run(
            factory, store(), specs, seed=2
        )
        _assert_same_per_shard(in_process, pooled)
        assert in_process.committed == pooled.committed == len(specs)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_shard_k_runs_on_process_k_mod_workers(self, tmp_path, workers):
        """The caller is process 0: the ``shard.run`` spans say so, and
        the pid each shard ran under agrees."""
        initial, _ = _partitioned()
        specs = [
            TransactionSpec(
                [update_op(f"p{p}:k0", _PidMarker(str(tmp_path), p))], name=f"pid{p}"
            )
            for p in range(4)
        ]
        recorder = TraceRecorder()
        ParallelShardRunner(workers=workers).run(
            StrictTwoPhaseLocking, _store(initial), specs, seed=1, tracer=recorder
        )
        runs = [span.meta for span in recorder.spans if span.name == "shard.run"]
        assert sorted(meta["shard"] for meta in runs) == [0, 1, 2, 3]
        assert {meta["shard"]: meta["in_caller"] for meta in runs} == {
            k: k % workers == 0 for k in range(4)
        }
        pids = {k: int((tmp_path / f"pid{k}").read_text()) for k in range(4)}
        process_of = {k: k % workers for k in range(4)}
        for k in range(4):
            assert (pids[k] == os.getpid()) == (process_of[k] == 0), k
            for j in range(4):
                assert (pids[k] == pids[j]) == (process_of[k] == process_of[j]), (k, j)

    @pytest.mark.parametrize("workers", [3, 4])
    def test_several_shards_per_process_more_processes_than_cores(self, workers):
        """Eight shards on three or four processes (shares of 3/3/2 and
        2/2/2/2), run five times over: every run equals the serial one."""
        initial, specs = _partitioned(num_transactions=64, num_partitions=8)
        serial = run_sharded_batch(
            StrictTwoPhaseLocking, _store(initial, num_partitions=8), specs, seed=3
        )
        for _ in range(5):
            parallel = ParallelShardRunner(workers=workers).run(
                StrictTwoPhaseLocking, _store(initial, num_partitions=8), specs, seed=3
            )
            _assert_same_per_shard(parallel, serial)
            assert len(parallel.per_shard) == 8

    def test_callers_store_untouched_by_a_forked_run(self):
        """The caller runs its own shards on rebuilt stores too."""
        initial, specs = _partitioned()
        store = _store(initial)
        before = store.snapshot()
        versions = {key: store.version_number(key) for key in store.keys()}
        result = ParallelShardRunner(workers=2).run(
            StrictTwoPhaseLocking, store, specs, seed=1
        )
        assert result.committed == len(specs)
        assert result.store_snapshot != before
        assert store.snapshot() == before
        assert {key: store.version_number(key) for key in store.keys()} == versions

    @pytest.mark.parametrize("workers, fork", [(1, True), (2, False)])
    def test_without_children_the_caller_runs_every_shard(
        self, monkeypatch, workers, fork
    ):
        """One worker, or no fork, is the same loop with no children: each
        shard gets its ``shard.run`` span, run in the caller."""
        if not fork:
            monkeypatch.setattr(
                multiprocessing, "get_all_start_methods", lambda: ["spawn"]
            )
        monkeypatch.setattr(os, "fork", _no_fork)
        initial, specs = _partitioned()
        recorder = TraceRecorder()
        result = ParallelShardRunner(workers=workers).run(
            StrictTwoPhaseLocking, _store(initial), specs, seed=1, tracer=recorder
        )
        assert result.committed == len(specs)
        runs = [span.meta for span in recorder.spans if span.name == "shard.run"]
        assert runs == [{"shard": k, "in_caller": True} for k in range(4)]
        assert not [span for span in recorder.spans if span.name == "shard.pickle"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_shard_starts_from_its_stores_real_state(self, workers):
        """After prior commits a shard's keys are past version 0: each
        shard runs on a copy of its store, so the protocol sees the
        version numbers the serial run sees, and every shard's results
        equal the serial run's."""
        initial, specs = _partitioned()

        def store():
            sharded = _store(initial)
            for p in range(4):
                for _ in range(p + 1):
                    sharded.write(f"p{p}:k0", p, writer=99)
                sharded.write(f"p{p}:k1", -p, writer=99)
            return sharded

        expected = {key: store().version_number(key) for key in initial}
        assert expected["p3:k0"] == 4 and expected["p0:k2"] == 0

        def factory(shard_store):
            seen = {key: shard_store.version_number(key) for key in shard_store.keys()}
            assert seen == {key: expected[key] for key in seen}, seen
            return StrictTwoPhaseLocking(shard_store)

        serial = run_sharded_batch(factory, store(), specs, seed=1)
        parallel = ParallelShardRunner(workers=workers).run(
            factory, store(), specs, seed=1
        )
        _assert_same_per_shard(parallel, serial)
        assert parallel.committed == len(specs)

    @pytest.mark.parametrize("platform", ["affinity", "no_affinity_api"])
    def test_default_worker_count_is_the_usable_cpus(self, monkeypatch, platform):
        """``workers=None`` counts the CPUs this process may run on: one
        usable CPU forks nothing, whatever the host has."""
        initial, specs = _partitioned()
        serial = run_sharded_batch(StrictTwoPhaseLocking, _store(initial), specs, seed=1)
        if platform == "affinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 64)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(os, "fork", _no_fork)
        result = ParallelShardRunner().run(
            StrictTwoPhaseLocking, _store(initial), specs, seed=1
        )
        _assert_same_per_shard(result, serial)
        assert len(result.per_shard) == 4


def _no_fork():
    """Stands in for ``os.fork`` where no process may be started."""
    raise AssertionError("a process was forked")


def _poison(reads):
    """A transform that raises inside its worker."""
    raise RuntimeError("poisoned op")


class TestWorkerCrashRobustness:
    """Satellite: a dying shard worker surfaces a typed, replayable error."""

    def _poisoned_specs(self):
        # healthy traffic on shard 0, one poisoned op on shard 1
        _, specs = _partitioned(num_transactions=8, num_partitions=2)
        healthy = [spec for spec in specs if spec.operations[0].key.startswith("p0:")]
        return healthy + [TransactionSpec([update_op("p1:k0", _poison)], name="poison")]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_poisoned_op_raises_shard_worker_error(self, workers):
        """Whether the caller runs shard 1 (workers=1) or a child does
        (workers=2), the runner raises the same typed error, carrying the
        shard index and derived seed needed to replay the crash on that
        shard alone."""
        initial, _ = _partitioned(num_partitions=2)
        with pytest.raises(ShardWorkerError) as excinfo:
            ParallelShardRunner(workers=workers).run(
                StrictTwoPhaseLocking,
                _store(initial, num_partitions=2),
                self._poisoned_specs(),
                seed=40,
            )
        error = excinfo.value
        assert error.shard_index == 1
        assert error.seed == 40 + 1  # the shard's derived engine seed
        assert "RuntimeError: poisoned op" in error.message
        assert "shard 1 worker failed (seed=41)" in str(error)

    def test_without_fork_the_error_keeps_its_context(self, monkeypatch):
        """Without fork, ``workers=2`` leaves the caller to run every shard,
        and it raises the same typed error, with the failing shard's index
        and derived seed."""
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        monkeypatch.setattr(os, "fork", _no_fork)
        initial, _ = _partitioned(num_partitions=2)
        with pytest.raises(ShardWorkerError) as excinfo:
            ParallelShardRunner(workers=2).run(
                StrictTwoPhaseLocking,
                _store(initial, num_partitions=2),
                self._poisoned_specs(),
                seed=40,
            )
        assert (excinfo.value.shard_index, excinfo.value.seed) == (1, 41)
        assert "RuntimeError: poisoned op" in excinfo.value.message

    def test_error_survives_the_process_boundary(self):
        """__reduce__ keeps the typed attributes through pickling — the
        mechanism by which a child's failure reaches the caller intact."""
        original = ShardWorkerError(3, 17, "KeyError: 'gone'")
        restored = pickle.loads(pickle.dumps(original))
        assert isinstance(restored, ShardWorkerError)
        assert restored.shard_index == 3
        assert restored.seed == 17
        assert restored.message == "KeyError: 'gone'"
        assert str(restored) == str(original)

    def test_healthy_shards_unaffected_without_poison(self):
        """The same workload minus the poisoned spec runs clean — the
        failure is attributable to the op, not the harness."""
        initial, _ = _partitioned(num_partitions=2)
        specs = [
            spec
            for spec in self._poisoned_specs()
            if spec.name != "poison"
        ]
        result = ParallelShardRunner(workers=2).run(
            StrictTwoPhaseLocking, _store(initial, num_partitions=2), specs, seed=40
        )
        assert result.committed == len(specs)


def _interrupt(reads):
    """A transform that is interrupted, as by Ctrl-C."""
    raise KeyboardInterrupt


def _die(reads):
    """A transform that takes its whole worker process down."""
    os._exit(1)


class _SlowMarker:
    """A transform that works for a while, then leaves a marker file
    saying its shard ran."""

    def __init__(self, directory, shard, delay):
        self.directory = directory
        self.shard = shard
        self.delay = delay

    def __call__(self, reads):
        time.sleep(self.delay)
        with open(os.path.join(self.directory, f"ran{self.shard}"), "w"):
            pass
        return 1


class _PidMarker:
    """A transform that leaves a file naming the process its shard ran in."""

    def __init__(self, directory, shard):
        self.directory = directory
        self.shard = shard

    def __call__(self, reads):
        with open(os.path.join(self.directory, f"pid{self.shard}"), "w") as marker:
            marker.write(str(os.getpid()))
        return 1


class TestFailureStopsTheBatch:
    def test_shards_not_yet_started_never_run(self, tmp_path):
        """Shard 0 fails at once on 2 workers: shard 1 is already on the
        other worker and finishes, shards 2 and 3 must never start (they
        used to run to completion before the caller heard of the error)."""
        initial, _ = _partitioned()
        specs = [TransactionSpec([update_op("p0:k0", _poison)], name="poison")]
        specs += [
            TransactionSpec(
                [update_op(f"p{p}:k0", _SlowMarker(str(tmp_path), p, 0.3))],
                name=f"slow{p}",
            )
            for p in (1, 2, 3)
        ]
        with pytest.raises(ShardWorkerError) as excinfo:
            ParallelShardRunner(workers=2).run(
                StrictTwoPhaseLocking, _store(initial), specs, seed=7
            )
        assert excinfo.value.shard_index == 0
        assert sorted(os.listdir(tmp_path)) == ["ran1"]

    def test_a_childs_failure_stops_the_caller_too(self, tmp_path):
        """The mirror: the child's shard 1 fails at once while the caller's
        shard 0 is slow.  The caller finishes shard 0 and starts no other
        (shard 2), and the child starts nothing after its failure (shard
        3)."""
        initial, _ = _partitioned()
        specs = [TransactionSpec([update_op("p1:k0", _poison)], name="poison")]
        specs += [
            TransactionSpec(
                [update_op(f"p{p}:k0", _SlowMarker(str(tmp_path), p, 0.5))],
                name=f"slow{p}",
            )
            for p in (0, 2, 3)
        ]
        with pytest.raises(ShardWorkerError) as excinfo:
            ParallelShardRunner(workers=2).run(
                StrictTwoPhaseLocking, _store(initial), specs, seed=7
            )
        assert (excinfo.value.shard_index, excinfo.value.seed) == (1, 8)
        assert sorted(os.listdir(tmp_path)) == ["ran0"]

    def test_an_interrupted_caller_leaves_no_child_behind(self, tmp_path):
        """An interrupt in the caller's own shard reaches the caller as
        is, and the child is ended, not waited for: it is gone by the
        time the interrupt propagates, and its shards never finish."""
        initial, _ = _partitioned()
        specs = [TransactionSpec([update_op("p0:k0", _interrupt)], name="interrupt")]
        specs += [
            TransactionSpec(
                [update_op(f"p{p}:k0", _SlowMarker(str(tmp_path), p, 5.0))],
                name=f"slow{p}",
            )
            for p in (1, 2, 3)
        ]
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            ParallelShardRunner(workers=2).run(
                StrictTwoPhaseLocking, _store(initial), specs, seed=7
            )
        assert time.perf_counter() - started < 5.0
        assert multiprocessing.active_children() == []
        assert os.listdir(tmp_path) == []

    def test_killed_worker_keeps_its_context(self):
        """A child that dies outright cannot raise a typed error; the
        runner must still say how it ended and which of its shards were
        lost, with their seeds.  Shard 0 runs in the caller, so the dead
        child's shard 1 is the only one lost."""
        initial, _ = _partitioned(num_partitions=2)
        specs = [
            TransactionSpec([increment_op("p0:k0")], name="healthy"),
            TransactionSpec([update_op("p1:k0", _die)], name="killer"),
        ]
        with pytest.raises(ShardWorkerError) as excinfo:
            ParallelShardRunner(workers=2).run(
                StrictTwoPhaseLocking,
                _store(initial, num_partitions=2),
                specs,
                seed=40,
            )
        error = excinfo.value
        assert "exit code 1" in error.message
        assert "1: 41" in error.message
        assert (error.shard_index, error.seed) == (1, 41)

    @pytest.mark.parametrize(
        "transform, context",
        [
            (_poison, "RuntimeError: poisoned op"),
            (_die, "(exit code 1) without reporting; shards outstanding, "
             "with their seeds: {1: 41, 3: 43, 5: 45, 7: 47}"),
        ],
        ids=["poisoned", "killed"],
    )
    def test_a_child_ending_with_shards_unread_keeps_the_context(
        self, transform, context
    ):
        """8 shards on 2 workers: the child's share is shards 1, 3, 5 and
        7, and it fails (or dies) in the first.  Three of its shards never
        run, and the caller still raises shard 1's typed error, not an
        error of the pipe the child left behind."""
        initial, _ = _partitioned(num_partitions=8)
        specs = [
            TransactionSpec([increment_op(f"p{p}:k0")], name=f"inc{p}")
            for p in range(8)
            if p != 1
        ]
        specs.append(TransactionSpec([update_op("p1:k0", transform)], name="bad"))
        with pytest.raises(ShardWorkerError) as excinfo:
            ParallelShardRunner(workers=2).run(
                StrictTwoPhaseLocking,
                _store(initial, num_partitions=8),
                specs,
                seed=40,
            )
        assert (excinfo.value.shard_index, excinfo.value.seed) == (1, 41)
        assert context in excinfo.value.message


def _queue_shard(key):
    """``h<i>`` / ``c<i>`` -> ``i % 4``: one hot key per shard."""
    return int(key[1:]) % 4


class TestPayload:
    """What crosses the process boundary, as counts that repeat exactly."""

    def _e17(self):
        # the E17 / shard-par-2pl shape: 600 single-key transactions of
        # 24 blind writes, 4 balanced shards
        initial, specs = hotspot_queue_workload(
            num_transactions=600,
            ops_per_transaction=24,
            num_hot=4,
            num_cold=16,
            zipf_theta=0.0,
            seed=0,
        )
        return ShardedDataStore(initial, num_shards=4, shard_of=_queue_shard), specs

    def test_each_task_pickled_once_and_those_bytes_are_what_ships(self, monkeypatch):
        """At two workers the caller runs shards 0 and 2 itself and writes
        nothing to the child; what crosses is the child's answers for
        shards 1 and 3, each unpickled once by the caller."""
        sent, received = [], []
        send_bytes, recv_bytes = Connection.send_bytes, Connection.recv_bytes

        def sending(conn, buf, *args, **kwargs):
            sent.append(bytes(buf))
            return send_bytes(conn, buf, *args, **kwargs)

        def receiving(conn, *args, **kwargs):
            received.append(recv_bytes(conn, *args, **kwargs))
            return received[-1]

        monkeypatch.setattr(Connection, "send_bytes", sending)
        monkeypatch.setattr(Connection, "recv_bytes", receiving)
        store, specs = self._e17()
        recorder = TraceRecorder()
        result = ParallelShardRunner(workers=2).run(
            StrictTwoPhaseLocking, store, specs, seed=0, tracer=recorder
        )
        assert result.committed == len(specs)
        assert sent == []
        # one answer per child shard, in shard order
        assert [pickle.loads(answer)[0] for answer in received] == [1, 3]
        spans = [span for span in recorder.spans if span.name == "shard.pickle"]
        assert [span.meta["shard"] for span in spans] == [1, 3]
        assert [span.meta["bytes"] for span in spans] == [len(a) for a in received]
        # the child's results, not the batch (600 x 24 operations): the
        # answers stay inside CI's payload budget
        assert sum(len(spec) for spec in specs) == 600 * 24
        assert 0 < sum(len(answer) for answer in received) <= 250_000


class TestShardedFaultInjection:
    """Satellite: fault_spec reaches every shard, serial and parallel."""

    SPEC = FaultSpec(abort_probability=0.12, stall_probability=0.1, seed=9)

    def test_faults_fire_under_serial_sharding(self):
        initial, specs = _partitioned(num_transactions=40)
        registry = Metrics()
        result = run_sharded_batch(
            StrictTwoPhaseLocking,
            _store(initial),
            specs,
            seed=1,
            fault_spec=self.SPEC,
            metrics=registry,
        )
        injected = registry.count("kernel.fault_aborts") + registry.count(
            "kernel.fault_stalls"
        )
        assert injected > 0, "fault plan never fired under sharding"
        assert result.committed + result.gave_up == len(specs)
        assert result.committed_serializable
        assert result.aborted_attempts >= registry.count("kernel.fault_aborts")

    def test_serial_and_parallel_agree_under_faults(self):
        initial, specs = _partitioned(num_transactions=40)
        serial = run_sharded_batch(
            StrictTwoPhaseLocking,
            _store(initial),
            specs,
            seed=1,
            fault_spec=self.SPEC,
        )
        parallel = ParallelShardRunner(workers=2).run(
            StrictTwoPhaseLocking,
            _store(initial),
            specs,
            seed=1,
            fault_spec=self.SPEC,
        )
        for index, shard_result in parallel.per_shard.items():
            assert (
                shard_result.per_transaction
                == serial.per_shard[index].per_transaction
            ), index
        assert parallel.aborted_attempts == serial.aborted_attempts

    def test_shared_metrics_registry_not_double_merged(self):
        """merged_metrics() must not multiply counters when every shard
        wrote into one caller-supplied registry."""
        initial, specs = _partitioned(num_transactions=30)
        registry = Metrics()
        result = run_sharded_batch(
            StrictTwoPhaseLocking, _store(initial), specs, seed=4, metrics=registry
        )
        merged = result.merged_metrics()
        assert merged.count("protocol.commits") == result.committed
        assert registry.count("protocol.commits") == result.committed


class TestShardedAggregates:
    """Satellite: the new ShardedExecutionResult aggregate properties."""

    def test_aggregates_sum_over_shards(self):
        initial, specs = _partitioned(num_transactions=40)
        result = run_sharded_batch(
            StrictTwoPhaseLocking, _store(initial), specs, seed=1
        )
        per_shard = result.per_shard.values()
        assert result.aborted_attempts == sum(r.aborted_attempts for r in per_shard)
        assert result.operations_issued == sum(
            r.operations_issued for r in per_shard
        )
        assert result.restarts == sum(r.restarts for r in per_shard)
        attempts = result.committed + result.aborted_attempts
        assert result.abort_rate == pytest.approx(
            result.aborted_attempts / attempts
        )

    def test_abort_rate_empty_batch(self):
        initial, _ = _partitioned()
        result = run_sharded_batch(
            StrictTwoPhaseLocking, _store(initial), [], seed=0
        )
        assert result.abort_rate == 0.0
        assert result.committed == 0
        assert result.operations_issued == 0
