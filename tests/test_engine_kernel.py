"""Tests for the shared engine kernel: event-driven wakeups, sharding, metrics.

The decisive properties:

* **Determinism** — the simulator is a pure function of its seed (same
  ``SimulationConfig.seed`` => identical report).
* **Guarantees under the wait index** — event-driven blocking changes
  *when* a blocked request is retried, never *what* the protocol
  decides, so committed histories stay conflict-serializable and the
  banking integrity constraint holds for every protocol.
* **The retry path** — a block the kernel could not park (an injected
  stall) is retried on the front-end's own schedule: one round later in
  the executor, ``retry_interval`` later in the simulator.
"""

import pytest

from repro.engine.faults import FaultPlan, FaultSpec
from repro.engine.kernel import EngineKernel, Session, StepKind
from repro.engine.metrics import Histogram, Metrics
from repro.engine.operations import TransactionSpec, increment_op
from repro.engine.protocols.base import SerialProtocol
from repro.engine.protocols.occ import OptimisticConcurrencyControl
from repro.engine.protocols.sgt import SerializationGraphTesting
from repro.engine.protocols.timestamp_ordering import TimestampOrdering
from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking
from repro.engine.runtime import TransactionExecutor, run_batch, run_sharded_batch
from repro.engine.simulator import SimulationConfig, Simulator
from repro.engine.storage import DataStore, ShardedDataStore
from repro.engine.workloads import (
    WorkloadConfig,
    banking_generator,
    partition_of,
    partitioned_generator,
    partitioned_workload,
    read_mostly_generator,
    zipfian_hotspot_generator,
    zipfian_hotspot_workload,
)
from repro.obs import trace as obs_trace
from repro.obs.trace import TraceRecorder

ALL_PROTOCOLS = [
    StrictTwoPhaseLocking,
    SerializationGraphTesting,
    TimestampOrdering,
    OptimisticConcurrencyControl,
]


def _report_fingerprint(report):
    """Everything the satellite requires to be reproducible from the seed."""
    b = report.mean_breakdown
    return (
        report.committed,
        report.aborts,
        report.blocks,
        report.operations,
        report.delay_free_transactions,
        report.mean_response_time,
        (b.scheduling, b.waiting, b.execution),
        tuple(sorted(report.final_snapshot.items())),
    )


def _simulate(protocol_cls, seed=7, clients=6, duration=300.0, workload=None):
    initial, generate = workload or banking_generator(num_accounts=10)
    store = DataStore(initial)
    config = SimulationConfig(
        num_clients=clients,
        duration=duration,
        seed=seed,
        abort_backoff=3.0,
    )
    return Simulator(protocol_cls(store), generate, config).run()


class TestKernelWaitIndex:
    def test_blocked_session_is_parked_and_woken_on_commit(self):
        store = DataStore({"x": 0})
        protocol = StrictTwoPhaseLocking(store)
        kernel = EngineKernel(protocol)
        woken = []
        kernel.wake_sink = woken.append

        first = kernel.new_session(TransactionSpec([increment_op("x")]), 0)
        second = kernel.new_session(TransactionSpec([increment_op("x")]), 1)
        kernel.step(first)   # begin
        kernel.step(first)   # lock x
        kernel.step(second)  # begin
        result = kernel.step(second)  # blocked on first's lock
        assert result.kind is StepKind.BLOCKED
        assert result.parked
        assert second.waiting
        assert kernel.blocked_behind(first.txn_id) == {1}

        kernel.step(first)   # commit -> releases the lock -> wakes second
        assert not second.waiting
        assert woken == [second]
        assert kernel.step(second).kind is StepKind.GRANTED

    def test_wake_on_abort_too(self):
        store = DataStore({"x": 0})
        protocol = StrictTwoPhaseLocking(store)
        kernel = EngineKernel(protocol)
        woken = []
        kernel.wake_sink = woken.append

        holder = kernel.new_session(TransactionSpec([increment_op("x")]), 0)
        waiter = kernel.new_session(TransactionSpec([increment_op("x")]), 1)
        kernel.step(holder)
        kernel.step(holder)
        kernel.step(waiter)
        assert kernel.step(waiter).kind is StepKind.BLOCKED
        protocol.abort(holder.txn_id)
        assert woken == [waiter]

    def test_stepping_a_parked_session_unparks_it(self):
        """Serial interleaving re-drives a session straight after it
        parks; the kernel must cope."""
        store = DataStore({"x": 0})
        protocol = StrictTwoPhaseLocking(store)
        kernel = EngineKernel(protocol)
        holder = kernel.new_session(TransactionSpec([increment_op("x")]), 0)
        waiter = kernel.new_session(TransactionSpec([increment_op("x")]), 1)
        kernel.step(holder)
        kernel.step(holder)
        kernel.step(waiter)
        kernel.step(waiter)
        assert waiter.waiting
        assert kernel.step(waiter).kind is StepKind.BLOCKED  # re-driven
        assert kernel.blocked_behind(holder.txn_id) == {1}

    def test_block_height_metric_is_observed(self):
        store = DataStore({"x": 0})
        protocol = StrictTwoPhaseLocking(store)
        kernel = EngineKernel(protocol)
        holder = kernel.new_session(TransactionSpec([increment_op("x")]), 0)
        kernel.step(holder)
        kernel.step(holder)
        for i in (1, 2, 3):
            s = kernel.new_session(TransactionSpec([increment_op("x")]), i)
            kernel.step(s)
            kernel.step(s)
        # the lock owns its waiters: the kernel parks each session behind
        # its queue predecessor only (a chain, one waiter per blocker) ...
        histogram = kernel.metrics.histogram("kernel.block_height")
        assert histogram.count == 3
        assert histogram.max == 1
        assert kernel.blocked_behind(holder.txn_id) == {1}
        # ... and the stack behind the holder is the lock manager's to report
        depth = kernel.metrics.histogram("2pl.queue_depth")
        assert depth.count == 3
        assert depth.max == 3  # three sessions stacked behind the holder


class TestSimulatorDeterminism:
    """Satellite: same seed => identical report, on two seeds."""

    @pytest.mark.parametrize("protocol_cls", ALL_PROTOCOLS)
    @pytest.mark.parametrize("seed", [13, 21])
    def test_same_seed_same_report(self, protocol_cls, seed):
        a = _simulate(protocol_cls, seed=seed)
        b = _simulate(protocol_cls, seed=seed)
        assert _report_fingerprint(a) == _report_fingerprint(b)

    @pytest.mark.parametrize("seed", [13, 21])
    def test_different_seeds_differ(self, seed):
        a = _simulate(StrictTwoPhaseLocking, seed=seed)
        b = _simulate(StrictTwoPhaseLocking, seed=seed + 1)
        assert _report_fingerprint(a) != _report_fingerprint(b)


class TestModeEquivalence:
    """Acceptance: parking blocked requests in the wait index leaves
    committed histories serializable and consistent on the banking and
    hotspot workloads."""

    @pytest.mark.parametrize("protocol_cls", ALL_PROTOCOLS)
    @pytest.mark.parametrize("workload_name", ["banking", "hotspot"])
    def test_serializable_and_consistent(self, protocol_cls, workload_name):
        if workload_name == "banking":
            workload = banking_generator(num_accounts=8)
        else:
            workload = zipfian_hotspot_generator(
                WorkloadConfig(num_keys=24, read_fraction=0.5)
            )
        report = _simulate(protocol_cls, seed=3, clients=8, workload=workload)
        assert report.committed > 0
        assert report.committed_serializable
        if workload_name == "banking":
            snapshot = report.final_snapshot
            total = sum(v for k, v in snapshot.items() if k.startswith("acct"))
            # money never created: balances + withdrawals stay bounded
            assert total + 5 * snapshot["C"] <= 8 * 100
            assert all(
                v >= 0 for k, v in snapshot.items() if k.startswith("acct")
            )

    @pytest.mark.parametrize("protocol_cls", ALL_PROTOCOLS)
    def test_executor_commits_every_transaction(self, protocol_cls):
        """The untimed executor commits every transaction."""
        initial, specs = zipfian_hotspot_workload(
            num_transactions=30, config=WorkloadConfig(num_keys=16), seed=4
        )
        result = run_batch(
            protocol_cls,
            DataStore(initial),
            specs,
            interleaving="random",
            seed=9,
            max_attempts=400,
        )
        assert result.committed == 30
        assert result.committed_serializable


class TestUnparkedRetry:
    """A block the kernel could not park is retried on a timer: the one
    place ``retry_interval`` (simulator) and the next round (executor)
    still time a wait.  An injected stall is such a block."""

    STALL_ONCE = FaultSpec(stall_probability=1.0, max_injections=1)

    def test_simulator_retries_a_stall_exactly_retry_interval_later(self):
        config = SimulationConfig(
            num_clients=1, duration=20.0, seed=3, retry_interval=0.75
        )
        simulator = Simulator(
            StrictTwoPhaseLocking(DataStore({"x": 0})),
            lambda rng: TransactionSpec([increment_op("x")]),
            config,
            fault_plan=FaultPlan(self.STALL_ONCE),
        )
        report = simulator.run()
        assert report.metrics.count("kernel.fault_stalls") == 1
        assert report.metrics.count("kernel.parks") == 0
        waits = report.metrics.histogram("sim.wait_time")
        assert waits.count == 1
        assert waits.max == pytest.approx(config.retry_interval)
        # that one wait is the retry interval, and it is all the waiting
        # any committed transaction did: the mean over the commits is the
        # stalled transaction's wait spread over all of them
        assert waits.total == pytest.approx(config.retry_interval)
        assert report.committed > 1
        assert report.mean_breakdown.waiting * report.committed == pytest.approx(
            config.retry_interval
        )

    def test_executor_retries_a_stall_the_next_round_without_parking(self):
        recorder = TraceRecorder()
        result = run_batch(
            StrictTwoPhaseLocking,
            DataStore({"x": 0, "y": 0}),
            [TransactionSpec([increment_op("x"), increment_op("y")], name="t")],
            fault_plan=FaultPlan(self.STALL_ONCE),
            tracer=recorder,
        )
        assert result.committed == 1 and result.blocks == 1
        assert result.metrics.count("kernel.parks") == 0
        events = recorder.events
        stall = next(i for i, e in enumerate(events) if e.etype == obs_trace.BLOCK)
        assert events[stall].meta["fault"]
        retry = events[stall + 1]
        assert retry.etype == obs_trace.WRITE and retry.key == events[stall].key
        assert retry.ts == events[stall].ts + 1
        assert not any(e.etype == obs_trace.WAKE for e in events)


class TestShardedStorage:
    def test_keys_partition_across_shards(self):
        store = ShardedDataStore({f"k{i}": i for i in range(32)}, num_shards=4)
        domains = store.conflict_domains()
        assert sorted(k for keys in domains.values() for k in keys) == sorted(
            f"k{i}" for i in range(32)
        )
        assert len(store) == 32
        for i in range(32):
            assert store.read(f"k{i}") == i
            assert store.shard_of(f"k{i}") == store.shard_of(f"k{i}")  # stable

    def test_datastore_facade(self):
        store = ShardedDataStore({"a": 1}, num_shards=2)
        store.write("a", 5, writer=42)
        assert store.read("a") == 5
        assert store.read_version("a").writer == 42
        assert store.version_number("a") == 1
        assert "a" in store
        assert store.snapshot() == {"a": 5}
        clone = store.copy()
        clone.write("a", 9)
        assert store.read("a") == 5

    def test_sharded_batch_runs_one_protocol_per_shard(self):
        initial, specs = partitioned_workload(
            num_transactions=40,
            config=WorkloadConfig(num_keys=32, read_fraction=0.4),
            seed=6,
            num_partitions=4,
        )
        store = ShardedDataStore(initial, num_shards=4, shard_of=partition_of)
        result = run_sharded_batch(
            StrictTwoPhaseLocking, store, specs, interleaving="random", seed=1
        )
        assert result.committed == 40
        assert result.committed_serializable
        assert len(result.per_shard) > 1  # work actually spread out
        # every key's committed value survives into the merged snapshot
        assert set(result.store_snapshot) == set(initial)
        merged = result.merged_metrics()
        assert merged.count("protocol.commits") == 40

    def test_cross_shard_transactions_are_rejected(self):
        initial, _ = partitioned_workload(num_transactions=1, num_partitions=2)
        store = ShardedDataStore(initial, num_shards=2, shard_of=partition_of)
        cross = TransactionSpec(
            [increment_op("p0:k0"), increment_op("p1:k0")], name="cross"
        )
        with pytest.raises(ValueError, match="spans shards"):
            run_sharded_batch(StrictTwoPhaseLocking, store, [cross])


class TestMetrics:
    def test_histogram_moments_and_quantiles(self):
        h = Histogram()
        for v in (1, 2, 3, 4, 5):
            h.observe(v)
        assert h.count == 5
        assert h.mean == pytest.approx(3.0)
        assert h.min == 1 and h.max == 5
        assert h.quantile(1.0) >= 5

    def test_histogram_bucket_assignment_at_the_edges(self):
        """Satellite: observe() bisects the bound edges; values exactly on
        an edge land in that edge's bucket (bounds are inclusive upper
        edges), values just above land in the next, values above every
        edge land in the overflow bucket."""
        h = Histogram(bounds=(1, 10, 100))
        h.observe(1)      # == first edge -> bucket 0
        h.observe(1.001)  # just above -> bucket 1
        h.observe(10)     # == second edge -> bucket 1
        h.observe(100)    # == last edge -> bucket 2
        h.observe(100.5)  # above every edge -> overflow
        h.observe(0)      # below the first edge -> bucket 0
        assert h.buckets == [2, 2, 1, 1]
        assert sum(h.buckets) == h.count == 6

    def test_metrics_merge_folds_counters_and_histograms(self):
        a, b = Metrics(), Metrics()
        a.incr("x", 2)
        b.incr("x", 3)
        a.observe("lat", 1.0)
        b.observe("lat", 3.0)
        a.merge(b)
        assert a.count("x") == 5
        assert a.histogram("lat").count == 2
        assert a.histogram("lat").mean == pytest.approx(2.0)

    def test_metrics_merge_with_mismatched_bounds_keeps_count_invariant(self):
        a, b = Metrics(), Metrics()
        a.histograms["lat"] = Histogram(bounds=(10, 100))
        a.observe("lat", 5.0)
        b.observe("lat", 3.0)  # default bounds: incompatible layout
        a.merge(b)
        merged = a.histogram("lat")
        assert merged.count == 2
        assert sum(merged.buckets) == merged.count

    def test_passed_registry_is_adopted_by_the_protocol(self):
        """metrics= on the front-end must not split kernel and protocol
        into separate registries."""
        metrics = Metrics()
        store = DataStore({"x": 0})
        executor = TransactionExecutor(
            StrictTwoPhaseLocking(store), metrics=metrics  # protocol built without it
        )
        executor.run([TransactionSpec([increment_op("x")], name="t")])
        assert metrics.count("protocol.commits") == 1

    def test_shared_registry_spans_kernel_and_protocol(self):
        metrics = Metrics()
        store = DataStore({"x": 0})
        executor = TransactionExecutor(
            StrictTwoPhaseLocking(store, metrics=metrics), metrics=metrics
        )
        executor.run(
            [TransactionSpec([increment_op("x")], name=f"t{i}") for i in range(4)]
        )
        assert metrics.count("protocol.commits") == 4
        report = metrics.report()
        assert "protocol.commits" in report

    def test_simulator_report_carries_metrics(self):
        report = _simulate(SerializationGraphTesting, seed=1)
        assert report.metrics is not None
        assert report.metrics.count("protocol.commits") == report.committed
        assert report.metrics.histogram("sim.response_time").count == report.committed


class TestNewWorkloads:
    def test_zipfian_hotspot_concentrates_on_hot_keys(self):
        import random as _random

        config = WorkloadConfig(
            num_keys=50, hotspot_fraction=0.1, hotspot_probability=0.8
        )
        _, generate = zipfian_hotspot_generator(config)
        rng = _random.Random(0)
        hot = {f"k{i}" for i in range(5)}
        touched = [
            op.key for _ in range(200) for op in generate(rng).operations
        ]
        hot_share = sum(1 for k in touched if k in hot) / len(touched)
        assert hot_share > 0.6  # ~80% expected

    def test_read_mostly_is_mostly_reads(self):
        import random as _random

        _, generate = read_mostly_generator(WorkloadConfig(num_keys=20))
        rng = _random.Random(1)
        ops = [op for _ in range(200) for op in generate(rng).operations]
        read_share = sum(1 for op in ops if not op.writes) / len(ops)
        assert read_share > 0.8

    def test_partitioned_transactions_stay_in_one_partition(self):
        import random as _random

        _, generate = partitioned_generator(WorkloadConfig(num_keys=32), 4)
        rng = _random.Random(2)
        for _ in range(50):
            spec = generate(rng)
            partitions = {partition_of(op.key) for op in spec.operations}
            assert len(partitions) == 1

    def test_serial_protocol_works_with_event_mode(self):
        report = _simulate(SerialProtocol, seed=2, clients=4)
        assert report.committed > 0
        assert report.committed_serializable
