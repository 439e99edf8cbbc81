"""Tests for the multi-version protocols: MVTO, SI/SSI, and the fast path.

The decisive properties:

* **Readers never block or abort** — neither protocol ever returns a
  BLOCK decision, reads are always granted, and declared-read-only
  transactions ride the kernel's snapshot fast path (zero protocol
  interactions at all).
* **One-copy serializability** — every committed MVTO history passes the
  MVSG check; plain SI admits write skew (and the checker says so) while
  ``serializable=True`` prevents it.
* **Mode equivalence and determinism** — both protocols run unmodified
  under the executor and simulator in both wait policies, and the
  simulator is a pure function of its seed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import small_batches

from repro.analysis.mvsg import (
    MVHistory,
    explain_mvsg_cycle,
    multiversion_serialization_graph,
    one_copy_serializable,
)
from repro.engine.kernel import EngineKernel, StepKind
from repro.engine.mvstore import MultiVersionDataStore, ShardedMultiVersionDataStore
from repro.engine.operations import (
    TransactionSpec,
    increment_op,
    read_op,
    update_op,
    write_op,
)
from repro.engine.protocols.mvto import MultiVersionTimestampOrdering
from repro.engine.protocols.registry import PROTOCOL_ENTRIES
from repro.engine.protocols.snapshot_isolation import SnapshotIsolation
from repro.engine.runtime import run_batch, run_sharded_batch
from repro.engine.simulator import SimulationConfig, Simulator
from repro.engine.storage import DataStore
from repro.engine.workloads import (
    WorkloadConfig,
    analytical_generator,
    banking_generator,
    long_scan_workload,
    partition_of,
    read_mostly_generator,
    zipfian_hotspot_generator,
)
from repro.obs.trace import ABORT, TraceRecorder

MV_PROTOCOLS = [
    MultiVersionTimestampOrdering,
    SnapshotIsolation,
    lambda store: SnapshotIsolation(store, serializable=True),
]
MV_IDS = ["mvto", "si", "ssi"]


def _mv_store(initial):
    return MultiVersionDataStore(initial)


# ----------------------------------------------------------------------
# protocol-level semantics
# ----------------------------------------------------------------------


class TestMVTOSemantics:
    def test_readers_never_block_or_abort(self):
        protocol = MultiVersionTimestampOrdering(_mv_store({"x": 0}))
        protocol.begin(1)
        protocol.begin(2)
        assert protocol.write(1, "x", 5).granted  # pending write, uncommitted
        # a younger reader is served the committed version immediately —
        # no block on the pending writer, unlike single-version T/O
        decision = protocol.read(2, "x")
        assert decision.granted and decision.value == 0

    def test_reader_sees_version_at_its_timestamp(self):
        protocol = MultiVersionTimestampOrdering(_mv_store({"x": 0}))
        protocol.begin(1)
        protocol.write(1, "x", 10)
        protocol.commit(1)  # installs x@ts1
        protocol.begin(2)
        assert protocol.read(2, "x").value == 10

    def test_late_writer_aborts_when_version_was_read(self):
        protocol = MultiVersionTimestampOrdering(_mv_store({"x": 0}))
        protocol.begin(1)
        protocol.begin(2)
        assert protocol.read(2, "x").granted  # rts(x@0) = ts2
        decision = protocol.write(1, "x", 5)  # ts1 < ts2 read the old version
        assert decision.aborted
        assert "already read" in decision.reason

    def test_commit_validation_catches_reads_after_write_grant(self):
        protocol = MultiVersionTimestampOrdering(_mv_store({"x": 0}))
        protocol.begin(1)
        assert protocol.write(1, "x", 5).granted  # nothing read yet
        protocol.begin(2)
        assert protocol.read(2, "x").value == 0  # younger reads old version
        decision = protocol.commit(1)
        assert decision.aborted  # installing x@ts1 would invalidate T2's read

    def test_blind_write_into_the_past_is_admitted(self):
        protocol = MultiVersionTimestampOrdering(_mv_store({"x": 0}))
        protocol.begin(1)
        protocol.begin(2)
        protocol.write(2, "x", 20)
        assert protocol.commit(2).granted
        # T1 (older, blind write, nobody read the old version) may still
        # install below T2's version
        protocol.write(1, "x", 10)
        assert protocol.commit(1).granted
        order = protocol.committed_version_orders()["x"]
        assert order == (1, 2)
        assert protocol.store.read("x") == 20  # newest version wins
        assert protocol.committed_history_serializable()

    def test_committed_histories_pass_mvsg(self):
        protocol = MultiVersionTimestampOrdering(_mv_store({"x": 0, "y": 0}))
        for txn, key in ((1, "x"), (2, "y"), (3, "x")):
            protocol.begin(txn)
            protocol.read(txn, key)
            protocol.write(txn, key, txn)
            protocol.commit(txn)
        assert protocol.committed_history_serializable()
        assert one_copy_serializable(MVHistory.from_protocol(protocol))


class TestSnapshotIsolationSemantics:
    def test_reads_come_from_begin_snapshot(self):
        protocol = SnapshotIsolation(_mv_store({"x": 0}))
        protocol.begin(1)
        protocol.begin(2)
        protocol.write(1, "x", 7)
        protocol.commit(1)
        # T2 began before T1 committed: still sees the initial version
        assert protocol.read(2, "x").value == 0
        protocol.begin(3)
        assert protocol.read(3, "x").value == 7

    def test_first_committer_wins(self):
        protocol = SnapshotIsolation(_mv_store({"x": 0}))
        protocol.begin(1)
        protocol.begin(2)
        protocol.write(1, "x", 1)
        protocol.write(2, "x", 2)
        assert protocol.commit(1).granted
        decision = protocol.commit(2)
        assert decision.aborted
        assert "first-committer-wins" in decision.reason

    def test_eager_first_committer_check_at_write(self):
        protocol = SnapshotIsolation(_mv_store({"x": 0}))
        protocol.begin(1)
        protocol.begin(2)
        protocol.write(1, "x", 1)
        protocol.commit(1)
        assert protocol.write(2, "x", 2).aborted  # doomed: fail fast

    def test_write_skew_admitted_by_plain_si_and_flagged_by_mvsg(self):
        protocol = SnapshotIsolation(_mv_store({"x": 1, "y": 1}))
        protocol.begin(1)
        protocol.begin(2)
        protocol.read(1, "x"), protocol.read(1, "y")
        protocol.read(2, "x"), protocol.read(2, "y")
        protocol.write(1, "x", 0)
        protocol.write(2, "y", 0)
        assert protocol.commit(1).granted
        assert protocol.commit(2).granted  # plain SI admits the skew
        history = MVHistory.from_protocol(protocol)
        assert not one_copy_serializable(history)
        assert set(explain_mvsg_cycle(history)) == {1, 2}
        assert not protocol.committed_history_serializable()

    def test_write_skew_prevented_with_serializable_knob(self):
        protocol = SnapshotIsolation(_mv_store({"x": 1, "y": 1}), serializable=True)
        protocol.begin(1)
        protocol.begin(2)
        protocol.read(1, "x"), protocol.read(1, "y")
        protocol.read(2, "x"), protocol.read(2, "y")
        protocol.write(1, "x", 0)
        protocol.write(2, "y", 0)
        assert protocol.commit(1).granted
        decision = protocol.commit(2)
        assert decision.aborted
        assert "pivot" in decision.reason
        assert protocol.committed_history_serializable()
        assert protocol.metrics.count("si.ssi_aborts") == 1

    def test_dangerous_structure_whose_pivot_commits_first_is_caught(self):
        """ISSUE-3 regression (found by hypothesis): the pivot of a
        dangerous structure can commit *before* the edge into it exists.
        Commit-time pivot checking alone misses it; the back-annotated
        in/out-conflict flags on committed footprints catch it.

        Cycle if T3 were admitted: T3 -rw-> T1 (k1), T1 -rw-> T2 (k0),
        T2 -wr-> T3 (k0) — not one-copy serializable.
        """
        protocol = SnapshotIsolation(
            _mv_store({"k0": 0, "k1": 0, "k2": 0}), serializable=True
        )
        protocol.begin(1)            # the pivot: reads k0, writes k1
        protocol.read(1, "k0")
        protocol.begin(2)            # concurrent writer of k0
        protocol.write(2, "k0", 9)
        assert protocol.commit(2).granted
        protocol.begin(3)            # reads T2's k0 and pre-pivot k1
        protocol.read(3, "k0")
        protocol.read(3, "k1")
        protocol.write(1, "k1", 9)
        assert protocol.commit(1).granted  # pivot commits: only outbound so far
        protocol.write(3, "k2", 9)
        decision = protocol.commit(3)
        assert decision.aborted
        assert "dangerous structure" in decision.reason
        assert protocol.metrics.count("si.ssi_aborts") == 1
        assert protocol.committed_history_serializable()

    def test_readonly_commit_does_not_tick_commit_clock(self):
        protocol = SnapshotIsolation(_mv_store({"x": 0}))
        protocol.begin(1)
        protocol.read(1, "x")
        protocol.commit(1)
        assert protocol.readonly_snapshot() == 0

    def test_conflict_graph_disagrees_with_mvsg_on_old_snapshot_reads(self):
        """Why MV protocols must not use the single-version check: a
        snapshot reader whose reads straddle a writer's commit creates a
        conflict-graph cycle, yet the MV history is 1SR (reader first)."""
        protocol = SnapshotIsolation(_mv_store({"x": 0, "k": 0}))
        protocol.begin(1)
        protocol.begin(2)
        assert protocol.read(1, "k").value == 0  # before T2 commits
        protocol.write(2, "x", 1)
        protocol.write(2, "k", 1)
        protocol.commit(2)
        assert protocol.read(1, "x").value == 0  # old version, after commit
        protocol.commit(1)
        # the naive single-version conflict graph sees r1(k) < w2(k) (rw,
        # T1->T2) but w2(x) < r1(x) (wr, T2->T1): a cycle
        assert protocol.committed_conflict_graph().has_cycle()
        # the MVSG knows better: T1 read only initial versions => T1 first
        assert protocol.committed_history_serializable()


# ----------------------------------------------------------------------
# the kernel's read-only fast path
# ----------------------------------------------------------------------


class TestReadOnlyFastPath:
    @pytest.mark.parametrize("protocol_cls", MV_PROTOCOLS, ids=MV_IDS)
    def test_declared_readonly_skips_the_protocol(self, protocol_cls):
        protocol = protocol_cls(_mv_store({"x": 1, "y": 2}))
        kernel = EngineKernel(protocol)
        spec = TransactionSpec([read_op("x"), read_op("y")], name="ro")
        assert spec.is_read_only
        session = kernel.new_session(spec, 0)
        assert kernel.step(session) is StepKind.STARTED
        assert session.fast_snapshot is not None
        assert kernel.step(session) is StepKind.GRANTED
        assert kernel.step(session) is StepKind.GRANTED
        assert kernel.step(session) is StepKind.COMMITTED
        assert session.reads == {"x": 1, "y": 2}
        # the protocol never saw the transaction at all
        assert not protocol.committed_log()
        assert not protocol.committed
        assert kernel.metrics.count("kernel.readonly_fastpath") == 1
        assert kernel.metrics.count("kernel.readonly_commits") == 1

    def test_fast_path_snapshot_is_stable_under_concurrent_commits(self):
        protocol = SnapshotIsolation(_mv_store({"x": 0}))
        kernel = EngineKernel(protocol)
        reader = kernel.new_session(
            TransactionSpec([read_op("x"), read_op("x")], name="ro"), 0
        )
        writer = kernel.new_session(
            TransactionSpec([write_op("x", 99)], name="w"), 1
        )
        kernel.step(reader)  # takes snapshot
        kernel.step(reader)  # first read -> 0
        for _ in range(3):
            kernel.step(writer)  # begin, write, commit
        assert protocol.store.read("x") == 99
        kernel.step(reader)  # second read must still see the snapshot
        assert reader.reads["x"] == 0

    def test_mvto_fast_snapshot_sits_below_active_writers(self):
        protocol = MultiVersionTimestampOrdering(_mv_store({"x": 0}))
        protocol.begin(1)  # active writer at ts 1
        snapshot = protocol.readonly_snapshot()
        assert snapshot < protocol.timestamp(1)
        protocol.release_snapshot(snapshot)

    def test_snapshot_lease_pins_garbage_collection(self):
        protocol = SnapshotIsolation(_mv_store({"x": 0}), gc_interval=1)
        snapshot = protocol.readonly_snapshot()
        for txn in (1, 2, 3):
            protocol.begin(txn)
            protocol.write(txn, "x", txn)
            protocol.commit(txn)
        # the leased snapshot still resolves despite gc_interval=1
        assert protocol.snapshot_read("x", snapshot) == 0
        protocol.release_snapshot(snapshot)
        protocol.begin(9)
        protocol.write(9, "x", 9)
        protocol.commit(9)  # next GC may now reclaim the initial version
        assert protocol.store.read("x") == 9

    def test_explicit_optout_disables_fast_path(self):
        protocol = SnapshotIsolation(_mv_store({"x": 0}))
        kernel = EngineKernel(protocol)
        spec = TransactionSpec([read_op("x")], name="ro", read_only=False)
        session = kernel.new_session(spec, 0)
        kernel.step(session)
        assert session.fast_snapshot is None
        assert session.txn_id in protocol.active

    def test_single_version_protocols_never_fast_path(self):
        from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking

        protocol = StrictTwoPhaseLocking(DataStore({"x": 0}))
        kernel = EngineKernel(protocol)
        session = kernel.new_session(TransactionSpec([read_op("x")]), 0)
        kernel.step(session)
        assert session.fast_snapshot is None

    def test_declared_readonly_with_writes_is_rejected(self):
        with pytest.raises(ValueError, match="declared read-only"):
            TransactionSpec([increment_op("x")], read_only=True)


# ----------------------------------------------------------------------
# executor and simulator integration
# ----------------------------------------------------------------------


def _simulate(protocol_cls, workload, seed=7, clients=8, duration=250.0):
    initial, generate = workload
    config = SimulationConfig(
        num_clients=clients,
        duration=duration,
        seed=seed,
        abort_backoff=3.0,
    )
    return Simulator(protocol_cls(DataStore(initial)), generate, config).run()


def _fingerprint(report):
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


WORKLOADS = {
    "banking": lambda: banking_generator(num_accounts=8),
    "read-mostly": lambda: read_mostly_generator(WorkloadConfig(num_keys=24)),
    "zipfian-hotspot": lambda: zipfian_hotspot_generator(
        WorkloadConfig(num_keys=24, read_fraction=0.5)
    ),
}


class TestModeEquivalenceAndDeterminism:
    @pytest.mark.parametrize("protocol_cls", MV_PROTOCOLS, ids=MV_IDS)
    @pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
    def test_mv_protocols_never_block(self, protocol_cls, workload_name):
        """MV protocols never block: no request is ever parked or retried."""
        report = _simulate(protocol_cls, WORKLOADS[workload_name]())
        assert report.committed > 0
        assert report.blocks == 0

    @pytest.mark.parametrize("protocol_cls", MV_PROTOCOLS, ids=MV_IDS)
    @pytest.mark.parametrize("seed", [13, 21])
    def test_same_seed_same_report(self, protocol_cls, seed):
        a = _simulate(protocol_cls, WORKLOADS["banking"](), seed=seed)
        b = _simulate(protocol_cls, WORKLOADS["banking"](), seed=seed)
        assert _fingerprint(a) == _fingerprint(b)

    @pytest.mark.parametrize("protocol_cls", MV_PROTOCOLS, ids=MV_IDS)
    def test_different_seeds_differ(self, protocol_cls):
        a = _simulate(protocol_cls, WORKLOADS["banking"](), seed=13)
        b = _simulate(protocol_cls, WORKLOADS["banking"](), seed=14)
        assert _fingerprint(a) != _fingerprint(b)

    @pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
    def test_mvto_simulated_histories_are_one_copy_serializable(
        self, workload_name
    ):
        report = _simulate(MultiVersionTimestampOrdering, WORKLOADS[workload_name]())
        assert report.committed > 0
        assert report.committed_serializable  # MVSG check via the override

    def test_banking_integrity_under_mv_protocols(self):
        for protocol_cls in MV_PROTOCOLS:
            report = _simulate(protocol_cls, WORKLOADS["banking"]())
            snapshot = report.final_snapshot
            total = sum(v for k, v in snapshot.items() if k.startswith("acct"))
            assert total + 5 * snapshot["C"] <= 8 * 100  # money never created
            assert all(
                v >= 0 for k, v in snapshot.items() if k.startswith("acct")
            )


class TestExecutorIntegration:
    @pytest.mark.parametrize("protocol_cls", MV_PROTOCOLS, ids=MV_IDS)
    @pytest.mark.parametrize("workload_seed", [4, 12])
    def test_long_scan_batch_commits_everything(self, protocol_cls, workload_seed):
        initial, specs = long_scan_workload(
            num_transactions=30,
            config=WorkloadConfig(num_keys=16),
            seed=workload_seed,
            scan_fraction=0.5,
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
        assert result.blocks == 0  # MV never blocks anyone
        assert result.committed_serializable
        scans = sum(1 for spec in specs if spec.is_read_only)
        assert scans > 0
        # every scan rode the fast path, and none of them ever retried
        assert result.metrics.count("kernel.readonly_fastpath") == scans
        assert result.metrics.count("kernel.readonly_commits") == scans

    def test_readonly_transactions_never_abort_on_read_mostly(self):
        initial, generate = read_mostly_generator(WorkloadConfig(num_keys=24))
        rng = random.Random(0)
        specs = [generate(rng) for _ in range(40)]
        result = run_batch(
            MultiVersionTimestampOrdering,
            DataStore(initial),
            specs,
            interleaving="random",
            seed=1,
            max_attempts=400,
        )
        assert result.committed == 40
        readonly = [
            stats
            for name, stats in result.per_transaction.items()
            if stats["blocks"] == 0 and stats["committed"]
        ]
        assert len(readonly) == 40  # nothing ever blocked
        fast = result.metrics.count("kernel.readonly_fastpath")
        auto_detected = sum(1 for spec in specs if spec.is_read_only)
        assert fast == auto_detected
        # fast-path transactions commit on their first attempt, always
        assert result.metrics.count("kernel.readonly_commits") == auto_detected

    def test_sharded_multiversion_batch(self):
        from repro.engine.workloads import partitioned_workload

        initial, specs = partitioned_workload(
            num_transactions=40,
            config=WorkloadConfig(num_keys=32, read_fraction=0.6),
            seed=6,
            num_partitions=4,
        )
        store = ShardedMultiVersionDataStore(
            initial, num_shards=4, shard_of=partition_of
        )
        # serializable SI: plain SI can (and under this seed does) admit
        # write skew, which the MVSG verdict would faithfully report
        result = run_sharded_batch(
            lambda s: SnapshotIsolation(s, serializable=True),
            store,
            specs,
            interleaving="random",
            seed=1,
        )
        assert result.committed == 40
        assert result.blocks == 0
        assert result.committed_serializable
        assert len(result.per_shard) > 1
        assert set(result.store_snapshot) == set(initial)

    def test_gc_bounds_chain_growth_in_long_runs(self):
        initial, generate = zipfian_hotspot_generator(
            WorkloadConfig(num_keys=8, read_fraction=0.2)
        )
        rng = random.Random(3)
        specs = [generate(rng) for _ in range(120)]
        protocol = SnapshotIsolation(_mv_store(initial), gc_interval=16)
        from repro.engine.runtime import TransactionExecutor

        executor = TransactionExecutor(protocol, max_attempts=400, seed=5)
        result = executor.run(specs)
        assert result.committed == 120
        # without GC the hot chains would hold hundreds of versions
        assert protocol.store.versions_collected > 0
        longest = max(
            len(protocol.store.version_chain(key)) for key in protocol.store.keys()
        )
        assert longest <= protocol.gc_interval + 8


class TestReadMostlyAnalytics:
    """Keeping old versions pays on a read-mostly hotspot.

    90% declared-read-only scans of 6 zipfian-hot keys beside 10-operation
    updates, 120 simulated clients, duration 300.  Under strict 2PL the
    scans queue behind the hot exclusive locks and the writers behind the
    scans' shared locks; OCC never blocks but aborts readers at
    validation.  The multi-version protocols serve every scan from a
    snapshot on the kernel's fast path, so readers neither block nor
    abort, and MVTO and SI commit at least twice what strict 2PL does.

    The "more than OCC" half is duration-sensitive: it holds at 300
    (MVTO 3,081 vs OCC 2,499) but not at 100 (1,145 vs 1,187), so the
    run keeps the duration the claim was made at.
    """

    PROTOCOLS = ("strict-2pl", "occ", "mvto", "si", "serializable-si")

    def _simulate(self, name):
        initial, generate = analytical_generator(
            WorkloadConfig(
                num_keys=64,
                hotspot_fraction=0.1,
                hotspot_probability=0.8,
                operations_per_transaction=10,
            ),
            read_fraction=0.9,
            scan_length=6,
        )
        config = SimulationConfig(
            num_clients=120,
            duration=300.0,
            seed=7,
            scheduling_time=0.001,
            execution_time=0.2,
            think_time=1.0,
            retry_interval=0.5,
            abort_backoff=2.0,
        )
        protocol = PROTOCOL_ENTRIES[name].factory(DataStore(initial))
        return Simulator(protocol, generate, config).run()

    def test_mvcc_beats_single_version_on_read_mostly_hotspot(self):
        reports = {name: self._simulate(name) for name in self.PROTOCOLS}
        for name in ("mvto", "si", "serializable-si"):
            report = reports[name]
            assert report.blocks == 0, name
            assert report.metrics.count("kernel.readonly_fastpath") > 0, name
            assert report.metrics.count("kernel.readonly_commits") > 0, name
            # plain SI may write-skew; the other two must be 1SR
            if name != "si":
                assert report.committed_serializable, name
        two_pl, occ = reports["strict-2pl"].committed, reports["occ"].committed
        for name in ("mvto", "si"):
            assert reports[name].committed >= 2 * two_pl, (name, two_pl)
            assert reports[name].committed > occ, (name, occ)


# ----------------------------------------------------------------------
# property tests: every committed MV history is MVSG-clean (except plain
# SI, which may exhibit write skew by design)
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(small_batches())
def test_mvto_histories_are_always_one_copy_serializable(batch):
    keys, specs, seed = batch
    protocol = MultiVersionTimestampOrdering(
        MultiVersionDataStore({k: 0 for k in keys})
    )
    from repro.engine.runtime import TransactionExecutor

    executor = TransactionExecutor(
        protocol, max_attempts=500, interleaving="random", seed=seed
    )
    result = executor.run(specs)
    assert result.committed == len(specs)
    assert one_copy_serializable(MVHistory.from_protocol(protocol))


@settings(max_examples=40, deadline=None)
@given(small_batches())
def test_serializable_si_histories_are_always_one_copy_serializable(batch):
    keys, specs, seed = batch
    protocol = SnapshotIsolation(
        MultiVersionDataStore({k: 0 for k in keys}), serializable=True
    )
    from repro.engine.runtime import TransactionExecutor

    executor = TransactionExecutor(
        protocol, max_attempts=500, interleaving="random", seed=seed
    )
    result = executor.run(specs)
    assert result.committed == len(specs)
    assert one_copy_serializable(MVHistory.from_protocol(protocol))


# ----------------------------------------------------------------------
# regressions from review: read-only anomaly, store reuse, sharded report
# ----------------------------------------------------------------------


class TestReadOnlyAnomaly:
    """Fekete's read-only transaction anomaly: a read-only transaction's
    reads alone can complete a dangerous structure, so SSI must account
    for read-only footprints (protocol-driven and fast-path alike)."""

    def _drive_anomaly(self, protocol, readonly_via_fast_path):
        # x = y = 0.  T2 (the pivot) snapshots early and reads x, y.
        protocol.begin(2)
        protocol.read(2, "x"), protocol.read(2, "y")
        # T1 blind-writes y and commits.
        protocol.begin(1)
        protocol.write(1, "y", 20)
        assert protocol.commit(1).granted
        # T3 is read-only, sees T1's write but not T2's (T2 uncommitted).
        if readonly_via_fast_path:
            snapshot = protocol.readonly_snapshot()
            assert protocol.snapshot_read("x", snapshot) == 0
            assert protocol.snapshot_read("y", snapshot) == 20
            protocol.release_snapshot(snapshot)
        else:
            protocol.begin(3)
            assert protocol.read(3, "x").value == 0
            assert protocol.read(3, "y").value == 20
            assert protocol.commit(3).granted
        # T2 now writes x: no FCW conflict (nobody wrote x), but T3
        # observed a state (y=20, x=0) that no serial order can produce
        # once T2 commits.
        protocol.write(2, "x", -11)
        return protocol.commit(2)

    def test_plain_si_admits_it_and_mvsg_flags_it(self):
        protocol = SnapshotIsolation(_mv_store({"x": 0, "y": 0}))
        assert self._drive_anomaly(protocol, readonly_via_fast_path=False).granted
        assert not protocol.committed_history_serializable()

    def test_serializable_si_aborts_the_pivot(self):
        protocol = SnapshotIsolation(
            _mv_store({"x": 0, "y": 0}), serializable=True
        )
        decision = self._drive_anomaly(protocol, readonly_via_fast_path=False)
        assert decision.aborted
        assert "pivot" in decision.reason
        assert protocol.committed_history_serializable()

    def test_fast_path_reader_footprints_count_too(self):
        protocol = SnapshotIsolation(
            _mv_store({"x": 0, "y": 0}), serializable=True
        )
        decision = self._drive_anomaly(protocol, readonly_via_fast_path=True)
        assert decision.aborted
        assert "pivot" in decision.reason

    def test_mvsg_certificate_covers_fast_path_readers(self):
        """Fast-path snapshot reads are logged (with the kernel-driven
        txn id) and their readers enter the certified transaction set, so
        plain SI's read-only anomaly is visible to the checker even when
        the reader rode the fast path."""
        protocol = SnapshotIsolation(_mv_store({"x": 0, "y": 0}))
        kernel = EngineKernel(protocol)
        pivot = kernel.new_session(
            TransactionSpec(
                [read_op("x"), read_op("y"), write_op("x", -11)], name="pivot"
            ),
            0,
        )
        writer = kernel.new_session(
            TransactionSpec([write_op("y", 20)], name="w"), 1
        )
        reader = kernel.new_session(
            TransactionSpec([read_op("x"), read_op("y")], name="ro"), 2
        )
        kernel.step(pivot)  # begin: snapshot before T1's commit
        kernel.step(pivot), kernel.step(pivot)  # reads x=0, y=0
        for _ in range(3):
            kernel.step(writer)  # begin, write y, commit
        for _ in range(4):
            kernel.step(reader)  # fast path: begin, read x=0, y=20, commit
        assert reader.fast_snapshot is not None or reader.committed
        kernel.step(pivot)  # write x
        result = kernel.step(pivot)  # commit: plain SI admits
        assert result is StepKind.COMMITTED
        assert reader.txn_id in protocol.mvsg_transactions()
        # the certified history includes the fast reader's observation
        # (y from the writer, x initial) and is correctly non-1SR
        assert not protocol.committed_history_serializable()


class TestFastPathCommittedPivot:
    """Harness-found (ISSUE 4): Fekete's read-only anomaly where the
    fast-path reader reads the overwritten key only *after* the pivot
    committed.  At the pivot's commit the lease carried no inbound edge
    (the key had not been read yet), so commit-time detection cannot
    fire; the reader itself must abort and retry on a fresh snapshot."""

    def _build(self):
        protocol = SnapshotIsolation(_mv_store({"x": 0, "y": 0}), serializable=True)
        # B (the pivot, id 102): snapshot before A's commit, reads x.
        protocol.begin(102)
        assert protocol.read(102, "x").value == 0
        # A (id 101) overwrites x and commits first: B ->rw A.
        protocol.begin(101)
        protocol.write(101, "x", 10)
        assert protocol.commit(101).granted
        return protocol

    def test_fast_path_read_after_pivot_commit_aborts(self):
        from repro.engine.protocols.base import SnapshotAborted

        protocol = self._build()
        lease = protocol.readonly_snapshot()  # after A, before B
        assert protocol.snapshot_read("x", lease) == 10  # wr edge A -> R
        # B writes y and commits: the lease has not read y, so the
        # commit-time bridge sees no inbound edge — B commits as the pivot.
        protocol.write(102, "y", 20)
        assert protocol.commit(102).granted
        # R now reads y: the stale version would close R ->rw B ->rw A
        # among three finished transactions — the reader must die instead.
        with pytest.raises(SnapshotAborted, match="pivot"):
            protocol.snapshot_read("y", lease)
        assert protocol.metrics.count("si.fastpath_aborts") >= 1

    def test_pivot_footprint_survives_trimming_while_leased(self):
        """Review-found hole in the fix: footprint trimming must use the
        lease-aware horizon.  With no active protocol transactions, an
        unrelated commit between the pivot's commit and the stale read
        would otherwise trim the pivot's footprint and blind the check."""
        from repro.engine.protocols.base import SnapshotAborted

        protocol = self._build()
        protocol.begin(103)  # extra key for the unrelated committer
        protocol.write(103, "z", 1)
        assert protocol.commit(103).granted
        lease = protocol.readonly_snapshot()
        assert protocol.snapshot_read("x", lease) == 10
        protocol.write(102, "y", 20)
        assert protocol.commit(102).granted  # the pivot commits
        # an unrelated transaction commits, triggering footprint trimming
        # while only the reader's lease is still concurrent with the pivot
        protocol.begin(104)
        protocol.write(104, "z", 2)
        assert protocol.commit(104).granted
        with pytest.raises(SnapshotAborted, match="pivot"):
            protocol.snapshot_read("y", lease)

    def test_kernel_restarts_the_reader_on_a_fresh_snapshot(self):
        protocol = self._build()
        tracer = TraceRecorder()
        kernel = EngineKernel(protocol, tracer=tracer)
        reader = kernel.new_session(
            TransactionSpec([read_op("x"), read_op("y")], name="ro", read_only=True), 0
        )
        kernel.step(reader)  # begin: lease after A's commit
        kernel.step(reader)  # read x = 10
        doomed_txn = reader.txn_id
        protocol.write(102, "y", 20)
        assert protocol.commit(102).granted  # the pivot commits
        result = kernel.step(reader)  # read y: aborted, lease released
        assert result is StepKind.ABORTED
        (abort,) = [event for event in tracer.events if event.etype == ABORT]
        assert "pivot" in abort.detail
        assert reader.fast_snapshot is None
        # the aborted attempt leaves no ghost reader footprint and no
        # dangling lease: a FAST_PATH_READER footprint here would make
        # later committers see phantom inbound edges
        from repro.engine.protocols.snapshot_isolation import FAST_PATH_READER

        assert all(f.txn_id != FAST_PATH_READER for f in protocol._footprints)
        assert not protocol._snapshot_leases
        assert not protocol._lease_reads
        kernel.restart(reader)
        while not reader.committed:
            kernel.step(reader)
        # the retry took a fresh snapshot and saw a consistent state
        assert reader.reads == {"x": 10, "y": 20}
        # the aborted attempt is out of the certificate: it covers only
        # what actually happened, and it is 1SR
        assert doomed_txn not in protocol.mvsg_transactions()
        history = MVHistory.from_protocol(protocol)
        certificate = multiversion_serialization_graph(history)
        assert doomed_txn not in certificate
        assert reader.txn_id in certificate
        assert protocol.committed_history_serializable()
        assert kernel.metrics.count("kernel.readonly_aborts") == 1


class TestSnapshotLeaseGC:
    """Watermark GC under leased read-only snapshots (ISSUE 4 satellite):
    a leased version is pinned no matter how much newer history commits,
    and reclaiming resumes once the lease is released."""

    def _committing_writer(self, protocol, txn_id, key, value):
        protocol.begin(txn_id)
        protocol.write(txn_id, key, value)
        assert protocol.commit(txn_id).granted

    def test_gc_never_reclaims_a_pinned_version(self):
        protocol = SnapshotIsolation(_mv_store({"a": 0}), gc_interval=1)
        self._committing_writer(protocol, 1, "a", 1)
        lease = protocol.readonly_snapshot()
        pinned = protocol.store.read_as_of("a", lease).value
        # every commit now triggers a GC pass, but the watermark stays
        # at the lease, so the leased version survives arbitrarily long
        for txn_id in range(2, 12):
            self._committing_writer(protocol, txn_id, "a", txn_id)
        assert protocol.store.read_as_of("a", lease).value == pinned
        chain_while_leased = len(protocol.store.version_chain("a"))
        assert chain_while_leased >= 10  # nothing at/above the lease went
        protocol.release_snapshot(lease)
        self._committing_writer(protocol, 50, "a", 50)
        assert len(protocol.store.version_chain("a")) < chain_while_leased
        with pytest.raises(Exception):
            protocol.store.read_as_of("a", lease - 1)

    def test_lease_expiry_mid_scan_is_impossible(self):
        """A kernel fast-path reader holds its lease for the whole scan:
        GC triggered by writers finishing mid-scan must never pull a
        version the scan still needs, so every read succeeds and the
        observed values form one consistent snapshot."""
        keys = [f"k{i}" for i in range(6)]
        protocol = SnapshotIsolation(
            _mv_store({key: 0 for key in keys}), gc_interval=1
        )
        kernel = EngineKernel(protocol)
        reader = kernel.new_session(
            TransactionSpec([read_op(key) for key in keys], name="scan", read_only=True),
            0,
        )
        kernel.step(reader)  # begin: lease at the current snapshot
        next_txn = 100
        for key in keys:
            result = kernel.step(reader)  # one scan step
            assert result is StepKind.GRANTED
            # between scan steps, writers overwrite every key and each
            # finish runs a GC pass (gc_interval=1)
            for target in keys:
                protocol.begin(next_txn)
                protocol.write(next_txn, target, next_txn)
                assert protocol.commit(next_txn).granted
                next_txn += 1
        # while the lease is held, every GC pass finds nothing
        # reclaimable: the lease pins the watermark below every
        # superseded version, so the chains just grow
        assert protocol.store.versions_collected == 0
        held = protocol.store.total_versions()
        final = kernel.step(reader)
        assert final is StepKind.COMMITTED
        assert reader.reads == {key: 0 for key in keys}  # one snapshot
        assert protocol.committed_history_serializable()
        # the lease is gone: the next finished transaction's GC pass
        # reclaims the history the scan was pinning
        protocol.begin(next_txn)
        protocol.write(next_txn, keys[0], -1)
        assert protocol.commit(next_txn).granted
        assert protocol.store.versions_collected > 0
        assert protocol.store.total_versions() < held

    def test_gc_resumes_after_scan_finishes(self):
        protocol = SnapshotIsolation(_mv_store({"a": 0}), gc_interval=4)
        kernel = EngineKernel(protocol)
        reader = kernel.new_session(
            TransactionSpec([read_op("a")], name="ro", read_only=True), 0
        )
        kernel.step(reader)  # takes the lease
        for txn_id in range(1, 20):
            protocol.begin(txn_id)
            protocol.write(txn_id, "a", txn_id)
            assert protocol.commit(txn_id).granted
        held = protocol.store.total_versions()
        while not reader.committed:
            kernel.step(reader)  # finishes the scan, releases the lease
        for txn_id in range(20, 30):
            protocol.begin(txn_id)
            protocol.write(txn_id, "a", txn_id)
            assert protocol.commit(txn_id).granted
        assert protocol.store.total_versions() < held


class TestStoreReuse:
    """The timestamp/commit clocks must seed above whatever the store
    already carries, so a MultiVersionDataStore reused across batches
    keeps working instead of colliding with existing versions."""

    @pytest.mark.parametrize("protocol_cls", MV_PROTOCOLS, ids=MV_IDS)
    def test_second_batch_over_the_same_store(self, protocol_cls):
        store = _mv_store({"a": 0, "b": 0})
        specs = [
            TransactionSpec([increment_op("a"), increment_op("b")], name="t")
            for _ in range(5)
        ]
        for round_number in (1, 2, 3):
            result = run_batch(
                protocol_cls, store, specs, seed=round_number, max_attempts=200
            )
            assert result.committed == 5
        assert store.read("a") == 15
        assert store.read("b") == 15

    def test_mvto_clock_starts_above_existing_versions(self):
        store = _mv_store({"a": 0})
        store.install("a", 1, 37, writer=99)
        protocol = MultiVersionTimestampOrdering(store)
        protocol.begin(1)
        assert protocol.timestamp(1) > 37
        assert protocol.read(1, "a").value == 1

    def test_si_clock_starts_above_existing_versions(self):
        store = _mv_store({"a": 0})
        store.install("a", 1, 37, writer=99)
        protocol = SnapshotIsolation(store)
        protocol.begin(1)
        assert protocol.snapshot_of(1) == 37
        assert protocol.read(1, "a").value == 1
        protocol.write(1, "a", 2)
        assert protocol.commit(1).granted
        assert store.read("a") == 2


class TestShardedSnapshotFreshness:
    def test_mv_protocol_over_plain_sharded_store_reports_commits(self):
        """ensure_multiversion wraps plain shards into private MV stores;
        the aggregate snapshot must come from what actually ran, not the
        caller's untouched shards."""
        from repro.engine.storage import ShardedDataStore
        from repro.engine.workloads import partitioned_workload

        initial, specs = partitioned_workload(
            num_transactions=20,
            config=WorkloadConfig(num_keys=16, read_fraction=0.0),
            seed=2,
            num_partitions=2,
        )
        store = ShardedDataStore(initial, num_shards=2, shard_of=partition_of)
        result = run_sharded_batch(
            MultiVersionTimestampOrdering, store, specs, seed=1, max_attempts=200
        )
        assert result.committed == 20
        assert set(result.store_snapshot) == set(initial)
        # every update was +1 on some key: the committed increments must
        # be visible in the reported snapshot
        total_delta = sum(result.store_snapshot.values()) - sum(initial.values())
        assert total_delta == 20 * 4  # 20 txns x 4 update ops each
