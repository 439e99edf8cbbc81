"""Tests for process-parallel shard execution and the sharded plumbing.

Covers the ISSUE-5 satellites alongside the tentpole's second half:

* :class:`ParallelShardRunner` parity — identical per-shard results to
  the serial :func:`run_sharded_batch` at every worker count, because
  per-shard seeds and fault plans are derived identically;
* ``fault_plan``/``metrics`` plumbed through ``run_sharded_batch``
  (with fault injection actually firing under sharding);
* the new :class:`ShardedExecutionResult` aggregates
  (``aborted_attempts``, ``operations_issued``, ``abort_rate``).
"""

import io
import os
import pickle
import time

import pytest

from repro.engine import parallel as parallel_module
from repro.engine.faults import FaultPlan, FaultSpec
from repro.engine.metrics import Metrics
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
        """The shipped workload builders must survive the worker boundary."""
        _, specs = _partitioned(num_transactions=5)
        restored = pickle.loads(pickle.dumps(specs))
        assert [spec.name for spec in restored] == [spec.name for spec in specs]
        # transforms still compute: an increment applied to a read buffer
        op = next(op for spec in restored for op in spec.operations if op.writes)
        assert op.transform({op.key: 41}) == 42

    def test_ops_with_picklable_transforms_stay_hashable(self):
        """Operation is a frozen dataclass hashing all fields: the callable
        transform classes must hash consistently with their __eq__ (the
        lambdas they replaced hashed by identity)."""
        from repro.engine.operations import write_op

        a, b = increment_op("k", 2), increment_op("k", 2)
        assert a == b and hash(a.transform) == hash(b.transform)
        assert len({a, b}) == 1
        assert len({write_op("k", 1), write_op("k", 1), write_op("k", 2)}) == 2

    def test_unpicklable_payload_raises_helpfully(self):
        # two shards so the pool (and its pre-flight pickle check) engages
        initial, _ = _partitioned()
        bad_specs = [
            TransactionSpec(
                [update_op(f"p{i}:k0", lambda reads, _k=f"p{i}:k0": reads[_k] + 1)],
                name=f"closure{i}",
            )
            for i in range(2)
        ]
        with pytest.raises(ValueError, match="module-level callables"):
            ParallelShardRunner(workers=2).run(
                StrictTwoPhaseLocking, _store(initial), bad_specs, seed=0
            )

    def test_closure_specs_run_fine_in_process(self):
        """With one worker nothing crosses a process boundary, so
        closure-built specs execute on the serial fallback."""
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
        """MV factories wrap plain shards via ensure_multiversion; the
        worker rebuild path must support that too."""
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

    def test_closure_built_transfer_fails_naming_the_shard(self):
        """``transfer_transaction`` closes over its arguments; shipping it
        must fail in the pre-flight, with the shard named."""
        initial, _ = _partitioned()
        specs = [
            transfer_transaction(f"p{p}:k0", f"p{p}:k1", 1, name=f"transfer{p}")
            for p in range(2)
        ]
        with pytest.raises(ValueError, match="shard 0 cannot be shipped") as excinfo:
            ParallelShardRunner(workers=2).run(
                StrictTwoPhaseLocking, _store(initial), specs, seed=0
            )
        assert "module-level callables" in str(excinfo.value)

    def test_deterministic_protocol_matches_serial_through_workers(self):
        """``det-slot`` is told each transaction's read and write set at
        begin: the sets a worker derives from the shipped program must be
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


def _poison(reads):
    """Module-level (hence picklable) transform that kills its worker."""
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
        """Both the in-process path (workers=1) and the pooled path raise
        the same typed error, carrying the shard index and derived seed
        needed to replay the crash on that shard alone."""
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

    def test_error_survives_the_process_boundary(self):
        """__reduce__ keeps the typed attributes through pickling — the
        mechanism by which the pooled path re-raises it intact."""
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


def _die(reads):
    """Module-level transform that takes its whole worker process down."""
    os._exit(1)


class _SlowMarker:
    """Module-level transform: works for a while, then leaves a marker
    file saying its shard ran."""

    def __init__(self, directory, shard, delay):
        self.directory = directory
        self.shard = shard
        self.delay = delay

    def __call__(self, reads):
        time.sleep(self.delay)
        with open(os.path.join(self.directory, f"ran{self.shard}"), "w"):
            pass
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

    def test_killed_worker_keeps_its_context(self):
        """A worker that dies outright cannot raise a typed error; the
        runner must still say which shards were lost and their seeds,
        not surface a bare BrokenProcessPool."""
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
        assert "BrokenProcessPool" in error.message
        # shard 1 is always among the lost; shard 0 too unless its result
        # got back before the pool broke
        assert "1: 41" in error.message
        assert (error.shard_index, error.seed) in ((0, 40), (1, 41))
        assert type(error.__cause__).__name__ == "BrokenProcessPool"


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
        pickled = []
        submitted = []
        pickle_task = parallel_module._pickle_task

        def counting_pickle_task(task):
            pickled.append(task.shard_index)
            return pickle_task(task)

        class RecordingPool(parallel_module.ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submitted.append((fn, args, kwargs))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(parallel_module, "_pickle_task", counting_pickle_task)
        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", RecordingPool)
        store, specs = self._e17()
        recorder = TraceRecorder()
        result = ParallelShardRunner(workers=2).run(
            StrictTwoPhaseLocking, store, specs, seed=0, tracer=recorder
        )
        assert result.committed == len(specs)
        assert pickled == [0, 1, 2, 3]
        payloads = [args[0] for _fn, args, _kwargs in submitted]
        assert len(payloads) == 4 and all(type(p) is bytes for p in payloads)
        spans = [span for span in recorder.spans if span.name == "shard.pickle"]
        assert [span.meta["shard"] for span in spans] == [0, 1, 2, 3]
        assert [span.meta["bytes"] for span in spans] == [len(p) for p in payloads]

        # the budget: 37.9 bytes per operation as TransactionSpec graphs,
        # 13.2 as programs
        operations = sum(len(spec) for spec in specs)
        shipped = sum(len(p) for p in payloads)
        assert operations == 600 * 24
        assert shipped <= 16 * operations, shipped / operations

        # and nothing in them is a spec: the only globals a payload names
        # are the task type, the store and protocol factories
        named = set()

        class Recording(pickle.Unpickler):
            def find_class(self, module, name):
                named.add(name)
                return super().find_class(module, name)

        for payload in payloads:
            Recording(io.BytesIO(payload)).load()
        assert "_ShardTask" in named
        assert not named & {
            "TransactionSpec",
            "Operation",
            "OperationKind",
            "ConstantTransform",
            "AddConstantTransform",
        }, named


class TestShardedFaultInjection:
    """Satellite: fault_plan reaches every shard, serial and parallel."""

    SPEC = FaultSpec(abort_probability=0.12, stall_probability=0.1, seed=9)

    def test_faults_fire_under_serial_sharding(self):
        initial, specs = _partitioned(num_transactions=40)
        registry = Metrics()
        result = run_sharded_batch(
            StrictTwoPhaseLocking,
            _store(initial),
            specs,
            seed=1,
            fault_plan=FaultPlan(self.SPEC),
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
            fault_plan=FaultPlan(self.SPEC),
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
