"""Tests for the untimed transaction executor across all protocols."""

import pytest

from repro.engine.operations import TransactionSpec, increment_op, read_op, update_op
from repro.engine.protocols.base import SerialProtocol
from repro.engine.protocols.occ import OptimisticConcurrencyControl
from repro.engine.protocols.sgt import SerializationGraphTesting
from repro.engine.protocols.timestamp_ordering import TimestampOrdering
from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking
from repro.engine.runtime import TransactionExecutor, run_batch
from repro.engine.storage import DataStore
from repro.engine.workloads import banking_workload

ALL_PROTOCOLS = [
    SerialProtocol,
    StrictTwoPhaseLocking,
    SerializationGraphTesting,
    TimestampOrdering,
    OptimisticConcurrencyControl,
]


def _increments(n_txns, key="x", per_txn=3):
    return [
        TransactionSpec([increment_op(key) for _ in range(per_txn)], name=f"inc{i}")
        for i in range(n_txns)
    ]


class TestExecutorBasics:
    def test_rejects_unknown_interleaving(self):
        with pytest.raises(ValueError):
            TransactionExecutor(SerialProtocol(DataStore({"x": 0})), interleaving="zigzag")

    def test_rejects_bad_concurrency_limit(self):
        with pytest.raises(ValueError):
            TransactionExecutor(SerialProtocol(DataStore({"x": 0})), max_concurrent=0)

    @pytest.mark.parametrize("max_attempts", [0, -3])
    def test_rejects_fewer_than_one_attempt(self, max_attempts):
        """Both used to commit the transaction anyway."""
        with pytest.raises(ValueError, match="max_attempts must be >= 1"):
            run_batch(
                SerialProtocol, DataStore({"x": 0}), _increments(1),
                max_attempts=max_attempts,
            )

    def test_single_transaction_runs_to_completion(self):
        store = DataStore({"x": 0})
        result = TransactionExecutor(SerialProtocol(store)).run(_increments(1))
        assert result.committed == 1
        assert store.read("x") == 3


class TestCorrectnessAcrossProtocols:
    """The decisive invariant: counter increments are lost iff isolation fails."""

    @pytest.mark.parametrize("protocol_cls", ALL_PROTOCOLS)
    @pytest.mark.parametrize("interleaving", ["round-robin", "random"])
    def test_no_lost_updates(self, protocol_cls, interleaving):
        store = DataStore({"x": 0})
        specs = _increments(6, per_txn=3)
        executor = TransactionExecutor(
            protocol_cls(store),
            interleaving=interleaving,
            seed=11,
            max_attempts=200,
        )
        result = executor.run(specs)
        assert result.committed == 6
        assert store.read("x") == 18  # every increment survives
        assert result.committed_serializable

    @pytest.mark.parametrize("protocol_cls", ALL_PROTOCOLS)
    def test_banking_invariant_preserved(self, protocol_cls):
        initial, specs = banking_workload(num_accounts=6, num_transactions=25, seed=5)
        store = DataStore(initial)
        result = TransactionExecutor(
            protocol_cls(store),
            interleaving="random",
            seed=7,
            max_attempts=300,
            max_concurrent=6,
        ).run(specs)
        assert result.committed == len(specs)
        assert result.committed_serializable
        snapshot = result.store_snapshot
        # money is conserved: balances only move between accounts or out
        # through withdrawals counted (5 per withdrawal unit) by C
        total = sum(v for k, v in snapshot.items() if k.startswith("acct"))
        withdrawn = 5 * snapshot["C"]
        assert total + withdrawn <= 6 * 100
        assert all(v >= 0 for k, v in snapshot.items() if k.startswith("acct"))

    @pytest.mark.parametrize("protocol_cls", ALL_PROTOCOLS)
    def test_serial_interleaving_never_aborts(self, protocol_cls):
        store = DataStore({"x": 0})
        result = TransactionExecutor(
            protocol_cls(store), interleaving="serial"
        ).run(_increments(4))
        assert result.committed == 4
        assert result.aborted_attempts == 0
        assert store.read("x") == 12


class TestExecutorReporting:
    def test_result_summary_contains_protocol_name(self):
        store = DataStore({"x": 0})
        result = TransactionExecutor(SerialProtocol(store)).run(_increments(2))
        assert "serial" in result.summary()
        assert result.total_submitted == 2
        assert result.abort_rate == 0.0

    def test_per_transaction_accounting(self):
        store = DataStore({"x": 0})
        result = TransactionExecutor(SerialProtocol(store)).run(_increments(2))
        assert len(result.per_transaction) == 2
        assert all(v["committed"] == 1 for v in result.per_transaction.values())

    def test_run_batch_helper(self):
        initial, specs = banking_workload(num_accounts=4, num_transactions=10, seed=2)
        result = run_batch(
            StrictTwoPhaseLocking, DataStore(initial), specs, seed=3, max_concurrent=4
        )
        assert result.protocol_name == "strict-2pl"
        assert result.committed == 10

    def test_concurrency_limit_reduces_conflicts(self):
        initial, specs = banking_workload(num_accounts=4, num_transactions=20, seed=9)
        unlimited = run_batch(
            StrictTwoPhaseLocking, DataStore(initial), specs, seed=1, max_attempts=500
        )
        limited = run_batch(
            StrictTwoPhaseLocking,
            DataStore(initial),
            specs,
            seed=1,
            max_attempts=500,
            max_concurrent=2,
        )
        assert limited.committed == unlimited.committed == 20
        assert limited.restarts <= unlimited.restarts
