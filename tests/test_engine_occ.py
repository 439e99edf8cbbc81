"""ISSUE-3 tests: inverted-index OCC, parallel validation, hot-path classes.

Covers the tentpole edge cases:

* a committed write landing *exactly at* the reader's start number must
  not invalidate it (the paper's condition is strict: only writes
  committed after the reader started conflict);
* ``history_limit`` overflow forces a **conservative abort** instead of
  a false validation pass (the bug the inverted index's eviction floor
  fixes);
* per-commit validation cost is O(|read set|), independent of how many
  transactions have committed (5k-commit flat-cost regression);
* every OCC abort is counted as an ``occ.validation_failures`` under
  both validation modes;
* the parallel pipeline: concurrent validators see each other's write
  sets, the kernel drives prepare/finish as two interactions, the
  committed histories stay serializable under heavy interleaving, and
  at 120 clients it commits at least 1.5x what serial validation does.

Plus the engine hot-path pass: the ``Decision.grant()`` singleton and
``__slots__`` on the hot classes.
"""

import pytest

from repro.engine.kernel import EngineKernel, Session, StepKind
from repro.engine.mvstore import VersionRecord
from repro.engine.operations import TransactionSpec, increment_op, read_op
from repro.engine.protocols.base import Decision, DecisionKind
from repro.engine.protocols.occ import OptimisticConcurrencyControl
from repro.engine.runtime import run_batch
from repro.engine.simulator import SimulationConfig, Simulator
from repro.engine.storage import DataStore, Version
from repro.engine.workloads import (
    WorkloadConfig,
    zipfian_hotspot_generator,
    zipfian_hotspot_workload,
)


@pytest.fixture
def store():
    return DataStore({"x": 0, "y": 0, "z": 0})


class TestInvertedIndexValidation:
    def test_write_exactly_at_start_number_does_not_invalidate(self, store):
        """Strict inequality: T2 starts *after* T1's commit is counted."""
        protocol = OptimisticConcurrencyControl(store)
        protocol.begin(1)
        protocol.write(1, "x", 1)
        assert protocol.commit(1).granted  # commit number 1
        protocol.begin(2)  # start number 1 == x's last writer commit
        protocol.read(2, "x")
        assert protocol.commit(2).granted
        assert protocol.metrics.count("occ.validation_failures") == 0

    def test_write_one_commit_after_start_invalidates(self, store):
        protocol = OptimisticConcurrencyControl(store)
        protocol.begin(2)
        protocol.read(2, "x")
        protocol.begin(1)
        protocol.write(1, "x", 1)
        assert protocol.commit(1).granted
        failed = protocol.commit(2)
        assert failed.aborted
        assert protocol.metrics.count("occ.validation_failures") == 1

    def test_index_records_last_writer_commit_numbers(self, store):
        protocol = OptimisticConcurrencyControl(store)
        protocol.begin(1)
        protocol.write(1, "x", 1)
        protocol.commit(1)
        protocol.begin(2)
        protocol.write(2, "x", 2)
        protocol.write(2, "y", 2)
        protocol.commit(2)
        assert protocol.last_writer_commit("x") == 2
        assert protocol.last_writer_commit("y") == 2
        assert protocol.last_writer_commit("z") is None

    def test_validation_cost_is_read_set_sized(self, store):
        """One index probe per read-set key, no matter the history."""
        protocol = OptimisticConcurrencyControl(store)
        for i in range(50):  # build up committed history
            protocol.begin(100 + i)
            protocol.write(100 + i, "z", i)
            protocol.commit(100 + i)
        protocol.take_validation_probes()
        protocol.begin(1)
        protocol.read(1, "x")
        protocol.read(1, "y")
        assert protocol.commit(1).granted
        assert protocol.take_validation_probes() == 2  # |read set|, not 50


class TestHistoryLimitOverflow:
    def test_overflow_forces_conservative_abort_not_false_pass(self, store):
        """A transaction older than the retained window must abort even
        when nothing it read was overwritten — the evicted history could
        have hidden a conflict."""
        protocol = OptimisticConcurrencyControl(store, history_limit=2)
        protocol.begin(1)  # start number 0
        protocol.read(1, "x")
        # four disjoint committed writers advance the eviction floor to 2
        for i in range(4):
            writer = 10 + i
            protocol.begin(writer)
            protocol.write(writer, "y", i)
            protocol.commit(writer)
        failed = protocol.commit(1)
        assert failed.aborted
        assert "history_limit overflow" in failed.reason
        assert protocol.metrics.count("occ.conservative_aborts") == 1
        assert protocol.metrics.count("occ.validation_failures") == 1

    def test_no_conservative_abort_within_the_window(self, store):
        protocol = OptimisticConcurrencyControl(store, history_limit=100)
        protocol.begin(1)
        protocol.read(1, "x")
        for i in range(50):
            writer = 10 + i
            protocol.begin(writer)
            protocol.write(writer, "y", i)
            protocol.commit(writer)
        assert protocol.commit(1).granted
        assert protocol.metrics.count("occ.conservative_aborts") == 0

    def test_index_eviction_is_bulk_and_bounded(self, store):
        protocol = OptimisticConcurrencyControl(
            DataStore({f"k{i}": 0 for i in range(1000)}), history_limit=100
        )
        for i in range(600):
            txn = 1000 + i
            protocol.begin(txn)
            protocol.write(txn, f"k{i}", i)
            protocol.commit(txn)
        # entries older than the floor were dropped in bulk sweeps
        assert protocol._index_floor == 500
        assert len(protocol._last_writer_commit) <= 2 * protocol.history_limit


class TestFlatCommitCost:
    """5k commits: validation stays flat and no structure grows with history."""

    def test_5000_commits_with_flat_validation_and_bounded_structures(self):
        keys = {f"k{i}": 0 for i in range(64)}
        protocol = OptimisticConcurrencyControl(DataStore(keys), history_limit=100)
        total_probes = 0
        commits = 5000
        for txn in range(1, commits + 1):
            key = f"k{txn % 64}"
            protocol.begin(txn)
            protocol.read(txn, key)
            protocol.write(txn, key, txn)
            assert protocol.commit(txn).granted
            total_probes += protocol.take_validation_probes()
        # validation did exactly one probe per commit (|read set| == 1):
        # cost never grew with the 5k-commit history
        assert total_probes == commits
        # the index is bounded by the keys written, and nothing per
        # transaction outlives it
        assert len(protocol._last_writer_commit) <= 64
        assert protocol._start_number == {}
        assert protocol._read_sets == {}
        assert protocol._validating == {}


class TestParallelValidationPipeline:
    def test_concurrent_validators_with_overlap_abort(self, store):
        protocol = OptimisticConcurrencyControl(store, validation="parallel")
        protocol.begin(1)
        protocol.read(1, "x")
        protocol.write(1, "y", 1)
        protocol.begin(2)
        protocol.read(2, "y")
        protocol.write(2, "z", 2)
        assert protocol.prepare_commit(1).granted
        assert protocol.validating_transactions() == (1,)
        # T2 enters the pipeline while T1 is validating: T1's published
        # write set {y} intersects T2's read set {y}
        failed = protocol.prepare_commit(2)
        assert failed.aborted
        assert "concurrently validating" in failed.reason
        protocol.abort(2)
        assert protocol.commit(1).granted
        assert protocol.validating_transactions() == ()

    def test_disjoint_concurrent_validators_both_commit(self, store):
        protocol = OptimisticConcurrencyControl(store, validation="parallel")
        protocol.begin(1)
        protocol.read(1, "x")
        protocol.write(1, "x", 1)
        protocol.begin(2)
        protocol.read(2, "y")
        protocol.write(2, "y", 2)
        assert protocol.prepare_commit(1).granted
        assert protocol.prepare_commit(2).granted
        assert protocol.validating_transactions() == (1, 2)
        assert protocol.commit(2).granted  # finish out of entry order is fine
        assert protocol.commit(1).granted
        assert store.snapshot() == {"x": 1, "y": 2, "z": 0}

    def test_commit_without_prepare_still_validates(self, store):
        """Direct protocol driving (no kernel) keeps single-call commits."""
        protocol = OptimisticConcurrencyControl(store, validation="parallel")
        protocol.begin(1)
        protocol.read(1, "x")
        protocol.begin(2)
        protocol.write(2, "x", 9)
        assert protocol.commit(2).granted
        assert protocol.commit(1).aborted
        assert protocol.metrics.count("occ.validation_failures") == 1

    def test_kernel_drives_two_stage_commit(self, store):
        protocol = OptimisticConcurrencyControl(store, validation="parallel")
        kernel = EngineKernel(protocol)
        session = kernel.new_session(TransactionSpec([increment_op("x")]), 0)
        kernel.step(session)  # begin
        kernel.step(session)  # update x
        result = kernel.step(session)
        assert result.kind is StepKind.VALIDATING
        assert result.was_commit
        assert result.validation_offloaded
        assert result.validation_probes >= 1
        assert session.validating
        done = kernel.step(session)
        assert done.kind is StepKind.COMMITTED
        assert not session.validating
        assert store.read("x") == 1

    def test_serial_mode_commits_in_one_stage(self, store):
        protocol = OptimisticConcurrencyControl(store)
        kernel = EngineKernel(protocol)
        session = kernel.new_session(TransactionSpec([increment_op("x")]), 0)
        kernel.step(session)
        kernel.step(session)
        result = kernel.step(session)
        assert result.kind is StepKind.COMMITTED
        assert result.validation_probes == 1
        assert not result.validation_offloaded

    @pytest.mark.parametrize("validation", ["serial", "parallel"])
    def test_contended_batches_stay_serializable(self, validation):
        initial, specs = zipfian_hotspot_workload(
            num_transactions=40, config=WorkloadConfig(num_keys=16), seed=4
        )
        result = run_batch(
            lambda s: OptimisticConcurrencyControl(s, validation=validation),
            DataStore(initial),
            specs,
            interleaving="random",
            seed=9,
            max_attempts=600,
        )
        assert result.committed == 40
        assert result.committed_serializable

    @pytest.mark.parametrize("validation", ["serial", "parallel"])
    def test_validation_failure_metric_agreement(self, validation):
        initial, generate = zipfian_hotspot_generator(
            WorkloadConfig(num_keys=16, read_fraction=0.5)
        )
        protocol = OptimisticConcurrencyControl(
            DataStore(initial), validation=validation
        )
        config = SimulationConfig(
            num_clients=12, duration=200.0, seed=3, abort_backoff=2.0
        )
        report = Simulator(protocol, generate, config).run()
        assert report.committed > 0
        assert report.committed_serializable
        count = report.metrics.count
        assert count("occ.validation_failures") > 0
        # validation is OCC's only way to abort
        assert count("occ.validation_failures") == count("protocol.aborts")

    def test_parallel_simulation_is_seed_deterministic(self):
        def run():
            initial, generate = zipfian_hotspot_generator(
                WorkloadConfig(num_keys=16, read_fraction=0.5)
            )
            protocol = OptimisticConcurrencyControl(
                DataStore(initial), validation="parallel"
            )
            config = SimulationConfig(
                num_clients=10,
                duration=150.0,
                seed=21,
                validation_probe_time=0.02,
            )
            report = Simulator(protocol, generate, config).run()
            return (report.committed, report.aborts, report.mean_response_time)

        assert run() == run()

    def test_validation_mode_is_validated(self, store):
        with pytest.raises(ValueError, match="serial.*parallel|parallel.*serial"):
            OptimisticConcurrencyControl(store, validation="speculative")


class TestValidationAtScale:
    """Section 5's parallel validation removes the critical-section queue.

    120 simulated clients on a zipfian hotspot with a non-zero
    ``validation_probe_time``: serial validation holds the single
    scheduler while it probes, so every committing client queues behind
    it; the parallel pipeline takes a ticket there and probes outside.
    Committed counts are seed-deterministic (189 vs 58, 3.26x).
    """

    def _run(self, validation):
        initial, generate = zipfian_hotspot_generator(
            WorkloadConfig(num_keys=64, read_fraction=0.6, hotspot_probability=0.75)
        )
        protocol = OptimisticConcurrencyControl(
            DataStore(initial), validation=validation
        )
        config = SimulationConfig(
            num_clients=120,
            duration=300.0,
            seed=7,
            scheduling_time=0.01,
            execution_time=0.2,
            think_time=1.0,
            retry_interval=0.5,
            abort_backoff=2.0,
            validation_probe_time=0.05,
        )
        return protocol, Simulator(protocol, generate, config).run()

    def test_parallel_validation_beats_serial_at_scale(self):
        reports = {}
        for validation in ("serial", "parallel"):
            protocol, report = self._run(validation)
            assert report.committed_serializable, validation
            count = report.metrics.count
            assert count("occ.validation_failures") == count(
                "protocol.aborts"
            ), validation
            reports[validation] = report
        serial, parallel = reports["serial"].committed, reports["parallel"].committed
        assert parallel >= 1.5 * serial, (parallel, serial)


class TestHotPathClasses:
    def test_decision_grant_is_a_singleton(self):
        assert Decision.grant() is Decision.grant()
        assert Decision.grant().kind is DecisionKind.GRANT
        assert Decision.grant(5) is not Decision.grant()
        assert Decision.grant(5).value == 5

    def test_decision_is_immutable_and_slotted(self):
        decision = Decision.grant()
        with pytest.raises(AttributeError):
            decision.kind = DecisionKind.ABORT
        assert not hasattr(decision, "__dict__")

    def test_hot_classes_have_no_instance_dict(self):
        session = Session(spec=None, session_id=0)
        assert not hasattr(session, "__dict__")
        assert not hasattr(Version(1, 0), "__dict__")
        assert not hasattr(VersionRecord(1, 0), "__dict__")

    def test_version_classes_are_immutable(self):
        version = Version(1, 0)
        with pytest.raises(AttributeError):
            version.value = 2
        record = VersionRecord("v", 1)
        with pytest.raises(AttributeError):
            record.end_ts = 5

    def test_version_record_closed_at_copies(self):
        record = VersionRecord("v", 1, None, writer=7)
        closed = record.closed_at(5)
        assert closed.end_ts == 5 and record.end_ts is None
        assert closed.value == "v" and closed.writer == 7
        assert closed == VersionRecord("v", 1, 5, 7)

    def test_update_transforms_see_live_read_buffer(self):
        """The kernel passes the session's read buffer to transforms
        without a defensive copy; reads accumulate across operations."""
        from repro.engine.operations import update_op

        store = DataStore({"x": 1, "y": 0})
        protocol = OptimisticConcurrencyControl(store)
        kernel = EngineKernel(protocol)
        spec = TransactionSpec(
            [read_op("x"), update_op("y", lambda reads: reads["x"] + 10)]
        )
        session = kernel.new_session(spec, 0)
        while not session.finished:
            kernel.step(session)
        assert store.read("y") == 11
