"""Protocol-level unit tests: hand-driven request sequences per protocol."""

import pytest

from repro.engine.protocols.base import Decision, DecisionKind, SerialProtocol
from repro.engine.protocols.occ import OptimisticConcurrencyControl
from repro.engine.protocols.registry import ProtocolEntry, get_entry
from repro.engine.protocols.sgt import SerializationGraphTesting
from repro.engine.protocols.timestamp_ordering import TimestampOrdering
from repro.engine.protocols.two_phase_locking import LockMode, StrictTwoPhaseLocking
from repro.engine.runtime import TransactionExecutor
from repro.engine.storage import DataStore
from repro.engine.workloads import (
    WorkloadConfig,
    hotspot_queue_workload,
    zipfian_hotspot_workload,
)
from repro.util.graphs import WaitForGraph


@pytest.fixture
def store():
    return DataStore({"x": 0, "y": 0})


class TestDecision:
    def test_constructors(self):
        assert Decision.grant(5).granted and Decision.grant(5).value == 5
        assert Decision.block((1,)).blocked and Decision.block((1,)).blocked_on == (1,)
        assert Decision.abort("why").aborted and Decision.abort("why").reason == "why"
        assert Decision.grant_without_effect().skip_effect


class TestBaseMechanics:
    def test_writes_are_buffered_until_commit(self, store):
        protocol = SerialProtocol(store)
        protocol.begin(1)
        protocol.write(1, "x", 99)
        assert store.read("x") == 0
        protocol.commit(1)
        assert store.read("x") == 99

    def test_read_your_own_writes(self, store):
        protocol = SerialProtocol(store)
        protocol.begin(1)
        protocol.write(1, "x", 5)
        assert protocol.read(1, "x").value == 5

    def test_abort_discards_buffer(self, store):
        protocol = SerialProtocol(store)
        protocol.begin(1)
        protocol.write(1, "x", 5)
        protocol.abort(1)
        assert store.read("x") == 0
        # the aborted attempt's trail is dropped, not kept in any log
        assert not protocol.trails and not protocol.committed_log()

    def test_operations_on_inactive_transaction_rejected(self, store):
        protocol = SerialProtocol(store)
        with pytest.raises(ValueError):
            protocol.read(1, "x")
        protocol.begin(1)
        with pytest.raises(ValueError):
            protocol.begin(1)

    def test_committed_log_and_conflict_graph(self, store):
        protocol = SerialProtocol(store)
        protocol.begin(1)
        protocol.write(1, "x", 1)
        protocol.commit(1)
        protocol.begin(2)
        protocol.read(2, "x")
        protocol.commit(2)
        graph = protocol.committed_conflict_graph()
        assert graph.has_edge(1, 2)
        assert protocol.committed_history_serializable()

    def test_history_after_restarts_holds_only_the_committed_attempts(self):
        initial, specs = zipfian_hotspot_workload(
            num_transactions=30,
            config=WorkloadConfig(num_keys=6, read_fraction=0.4),
            seed=5,
        )
        protocol = OptimisticConcurrencyControl(DataStore(initial))
        aborted = []
        protocol.add_finish_listener(
            lambda txn, outcome: outcome == "abort" and aborted.append(txn)
        )
        result = TransactionExecutor(protocol, max_attempts=400, seed=3).run(specs)
        assert result.committed == len(specs) and result.restarts > 0 and aborted
        history = protocol.committed_log()
        assert len(history) == result.committed
        assert {txn for _, txn, _ in history} == protocol.committed
        assert not protocol.committed & set(aborted)
        assert not protocol.trails  # every aborted attempt's trail was dropped
        in_commit_order = [position for position, _, _ in history]
        assert in_commit_order == sorted(set(in_commit_order))
        for commit_position, _, trail in history:
            assert trail and all(position < commit_position for position, _, _ in trail)


class TestSerialProtocol:
    def test_second_transaction_blocks_until_holder_commits(self, store):
        protocol = SerialProtocol(store)
        protocol.begin(1)
        protocol.begin(2)
        assert protocol.read(1, "x").granted
        blocked = protocol.read(2, "x")
        assert blocked.blocked and blocked.blocked_on == (1,)
        protocol.commit(1)
        assert protocol.read(2, "x").granted


class TestStrictTwoPhaseLocking:
    def test_shared_locks_are_compatible(self, store):
        protocol = StrictTwoPhaseLocking(store)
        protocol.begin(1)
        protocol.begin(2)
        assert protocol.read(1, "x").granted
        assert protocol.read(2, "x").granted
        assert protocol.lock_holders("x") == {1: LockMode.SHARED, 2: LockMode.SHARED}

    def test_exclusive_lock_blocks_reader(self, store):
        protocol = StrictTwoPhaseLocking(store)
        protocol.begin(1)
        protocol.begin(2)
        assert protocol.write(1, "x", 1).granted
        blocked = protocol.read(2, "x")
        assert blocked.blocked and blocked.blocked_on == (1,)

    def test_locks_released_at_commit(self, store):
        protocol = StrictTwoPhaseLocking(store)
        protocol.begin(1)
        protocol.write(1, "x", 1)
        protocol.commit(1)
        protocol.begin(2)
        assert protocol.write(2, "x", 2).granted

    def test_lock_upgrade_for_same_transaction(self, store):
        protocol = StrictTwoPhaseLocking(store)
        protocol.begin(1)
        assert protocol.read(1, "x").granted
        assert protocol.write(1, "x", 3).granted
        assert protocol.locks_held(1)["x"] is LockMode.EXCLUSIVE

    def test_deadlock_aborts_the_requester(self, store):
        protocol = StrictTwoPhaseLocking(store)
        protocol.begin(1)
        protocol.begin(2)
        assert protocol.write(1, "x", 1).granted
        assert protocol.write(2, "y", 2).granted
        assert protocol.write(1, "y", 3).blocked
        closing = protocol.write(2, "x", 4)
        assert closing.aborted
        assert protocol.metrics.count("2pl.deadlocks") == 1

    def test_lock_table_answers_track_release(self, store):
        protocol = StrictTwoPhaseLocking(store)
        protocol.begin(1)
        protocol.begin(2)
        protocol.read(1, "x")
        protocol.read(2, "x")
        protocol.write(1, "y", 5)
        assert protocol.locks_held(1) == {"x": LockMode.SHARED, "y": LockMode.EXCLUSIVE}
        assert protocol.locks_held(2) == {"x": LockMode.SHARED}
        protocol.commit(1)
        assert protocol.locks_held(1) == {}
        assert protocol.lock_holders("y") == {}
        assert protocol.lock_holders("x") == {2: LockMode.SHARED}
        protocol.abort(2)
        assert protocol.lock_holders("x") == {}
        assert protocol.locks_held(2) == {}

    def test_finished_transactions_leave_no_state_behind(self):
        """A long run must not grow the lock table or the wait-for graph."""
        initial, specs = zipfian_hotspot_workload(
            num_transactions=2000,
            config=WorkloadConfig(num_keys=24, read_fraction=0.4),
            seed=11,
        )
        protocol = StrictTwoPhaseLocking(DataStore(initial))
        result = TransactionExecutor(
            protocol, max_attempts=400, max_concurrent=12
        ).run(specs)
        assert result.committed == 2000 and result.restarts > 0
        assert not any(entry.free for entry in protocol._locks.values())
        assert protocol._locks == {} and protocol._held_keys == {}
        assert len(protocol._wait_for) == 0
        # no queued request and no queued-on index survives either (requests
        # that left by abort, from the middle or as the last one, included)
        assert protocol._queued_on == {}
        assert protocol.metrics.histogram("2pl.queue_depth").count > 0


def _queueing_2pl():
    """A lock manager with transactions 1..6 begun and a record of who the
    protocol asked to have re-driven (the hand-off's grantees), in order."""
    protocol = StrictTwoPhaseLocking(DataStore({"x": 0, "y": 0}))
    woken = []
    protocol.add_wake_listener(woken.append)
    for txn in range(1, 7):
        protocol.begin(txn)
    return protocol, woken


S, X = LockMode.SHARED, LockMode.EXCLUSIVE


class TestLockQueue:
    """The contract of the FIFO request queue a lock owns."""

    def test_grant_order_is_first_request_order(self):
        protocol, woken = _queueing_2pl()
        assert protocol.write(1, "x", 1).granted
        order = [5, 3, 6, 2, 4]
        for position, txn in enumerate(order):
            blocked = protocol.write(txn, "x", txn)
            # the head waits for the holder, everyone else for its predecessor
            assert blocked.blocked_on == ((1,) if position == 0 else (order[position - 1],))
        assert protocol.lock_queue("x") == [(txn, X) for txn in order]
        holder = 1
        for position, txn in enumerate(order):
            protocol.commit(holder)
            # the release handed the lock to the head and re-drove only it
            assert protocol.lock_holders("x") == {txn: X}
            assert woken == order[: position + 1]
            assert protocol.write(txn, "x", txn).granted  # the retry: already its own
            holder = txn
        protocol.commit(holder)
        assert protocol._locks == {} and protocol._queued_on == {}

    def test_shared_requests_cannot_overtake_a_queued_exclusive(self):
        protocol, woken = _queueing_2pl()
        assert protocol.read(1, "x").granted
        assert protocol.write(2, "x", 2).blocked_on == (1,)
        # compatible with the holder, but a newcomer never barges past a queue:
        # a stream of readers cannot starve the writer
        for reader, ahead in ((3, 2), (4, 3), (5, 4)):
            assert protocol.read(reader, "x").blocked_on == (ahead,)
        assert protocol.lock_holders("x") == {1: S}
        protocol.commit(1)
        assert protocol.lock_holders("x") == {2: X} and woken == [2]
        protocol.commit(2)
        assert protocol.lock_holders("x") == {3: S, 4: S, 5: S}
        assert woken == [2, 3, 4, 5]

    def test_a_run_of_shared_is_granted_together_and_the_exclusive_after_both(self):
        protocol, woken = _queueing_2pl()
        assert protocol.write(1, "x", 1).granted
        assert protocol.read(2, "x").blocked_on == (1,)
        assert protocol.read(3, "x").blocked_on == (2,)
        assert protocol.write(4, "x", 4).blocked_on == (3,)
        protocol.commit(1)
        assert protocol.lock_holders("x") == {2: S, 3: S}
        assert protocol.lock_queue("x") == [(4, X)] and woken == [2, 3]
        assert protocol.read(2, "x").granted and protocol.read(3, "x").granted
        protocol.commit(3)
        # its predecessor is gone but the other reader is not: the writer,
        # now the head, re-requests and is told which holder is in its way
        assert woken == [2, 3]
        assert protocol.write(4, "x", 4).blocked_on == (2,)
        protocol.commit(2)
        assert protocol.lock_holders("x") == {4: X} and woken == [2, 3, 4]
        assert protocol.write(4, "x", 4).granted

    def test_an_upgrade_goes_to_the_front(self):
        protocol, woken = _queueing_2pl()
        assert protocol.read(1, "x").granted and protocol.read(2, "x").granted
        assert protocol.write(3, "x", 3).blocked_on == (1, 2)
        assert protocol.write(1, "x", 1).blocked_on == (2,)
        assert protocol.lock_queue("x") == [(1, X), (3, X)]
        protocol.commit(2)
        assert protocol.lock_holders("x") == {1: X} and woken == [1]
        # the only holder upgrades on the spot, queue or no queue
        assert protocol.read(4, "y").granted and protocol.read(5, "y").granted
        protocol.commit(5)
        assert protocol.write(6, "y", 6).blocked_on == (4,)
        assert protocol.write(4, "y", 4).granted

    def test_two_upgrading_holders_deadlock_and_exactly_one_aborts(self):
        protocol, woken = _queueing_2pl()
        assert protocol.read(1, "x").granted and protocol.read(2, "x").granted
        # the younger one asks first; the older one closing the cycle aborts
        assert protocol.write(2, "x", 2).blocked_on == (1,)
        closing = protocol.write(1, "x", 1)
        assert protocol.metrics.count("2pl.deadlocks") == 1
        assert closing.aborted
        loser, winner = 1, 2
        protocol.abort(loser)
        assert protocol.lock_holders("x") == {winner: X}
        assert woken[-1] == winner and protocol.lock_queue("x") == []
        assert protocol.write(winner, "x", 0).granted
        assert protocol.commit(winner).granted
        assert protocol.metrics.count("2pl.deadlocks") == 1
        assert protocol._locks == {} and protocol._queued_on == {}

    def test_abort_from_the_middle_of_a_queue(self):
        protocol, woken = _queueing_2pl()
        assert protocol.write(1, "x", 1).granted
        for txn in (2, 3, 4):
            assert protocol.write(txn, "x", txn).blocked
        protocol.abort(3)
        assert protocol.lock_queue("x") == [(2, X), (4, X)]
        assert 3 not in protocol._queued_on and woken == []
        # the finish notification wakes 4 (it was parked on 3); its retry
        # re-links it to the new predecessor without queueing again
        assert protocol.write(4, "x", 4).blocked_on == (2,)
        assert protocol.lock_queue("x") == [(2, X), (4, X)]
        protocol.commit(1)
        protocol.commit(2)
        assert protocol.lock_holders("x") == {4: X} and woken == [2, 4]

    def test_last_queued_request_leaving_by_abort_leaves_nothing(self):
        protocol, woken = _queueing_2pl()
        assert protocol.write(1, "x", 1).granted
        assert protocol.write(2, "x", 2).blocked
        protocol.abort(2)
        protocol.commit(1)
        assert protocol._locks == {} and protocol._queued_on == {}
        assert len(protocol._wait_for) == 0

    def test_a_grantee_aborted_before_its_retry_passes_the_lock_on(self):
        # what an injected fault does to a session between wake and retry
        protocol, woken = _queueing_2pl()
        assert protocol.write(1, "x", 1).granted
        assert protocol.write(2, "x", 2).blocked and protocol.write(3, "x", 3).blocked
        protocol.commit(1)
        assert protocol.lock_holders("x") == {2: X}
        protocol.abort(2)
        assert protocol.lock_holders("x") == {3: X} and woken == [2, 3]
        assert protocol.write(3, "x", 3).granted

    def test_a_repeated_request_by_a_queued_transaction_does_not_enqueue_twice(self):
        # what a queued session does when it is woken because its queue
        # predecessor aborted: it asks again while still queued
        protocol, woken = _queueing_2pl()
        assert protocol.write(1, "x", 1).granted
        assert protocol.write(2, "x", 2).blocked and protocol.read(3, "x").blocked
        for _ in range(3):
            assert protocol.read(3, "x").blocked_on == (2,)
            assert protocol.write(2, "x", 2).blocked_on == (1,)
        assert protocol.lock_queue("x") == [(2, X), (3, S)]
        assert protocol.metrics.histogram("2pl.queue_depth").count == 2
        assert protocol.metrics.count("protocol.blocks") == 8 and woken == []

    def test_asking_for_something_else_gives_the_queued_request_up(self):
        # no engine caller does this (a blocked session repeats its request),
        # but the protocol API allows it and must not strand a request
        protocol, woken = _queueing_2pl()
        assert protocol.write(1, "x", 1).granted
        assert protocol.write(2, "x", 2).blocked and protocol.write(3, "x", 3).blocked
        assert protocol.write(2, "y", 2).granted
        assert protocol.lock_queue("x") == [(3, X)] and 2 not in protocol._queued_on
        assert protocol.write(3, "x", 3).blocked_on == (1,)
        protocol.commit(1)
        assert protocol.lock_holders("x") == {3: X} and woken == [3]

    def test_hotspot_queue_batch_blocks_once_per_waiter(self):
        initial, specs = hotspot_queue_workload(
            num_transactions=120, ops_per_transaction=4, num_hot=2, num_cold=8, seed=2
        )
        protocol = StrictTwoPhaseLocking(DataStore(initial))
        result = TransactionExecutor(protocol).run(specs)
        assert result.committed == len(specs) and result.restarts == 0
        assert result.committed_serializable
        # every waiter queued exactly once ...
        assert result.metrics.histogram("2pl.queue_depth").count < len(specs)
        # ... and asks exactly once more, when the lock is already its own
        assert result.metrics.count("protocol.blocks") <= len(specs)
        assert result.metrics.count("kernel.wakeups") == result.metrics.count(
            "kernel.parks"
        )
        assert protocol._locks == {} and protocol._queued_on == {}


class _CountingWaitForGraph(WaitForGraph):
    """Counts the deadlock searches the lock manager actually runs."""

    def __init__(self):
        super().__init__()
        self.searches = 0

    def cycle_through(self, start):
        self.searches += 1
        return super().cycle_through(start)


def _counting_2pl():
    protocol = StrictTwoPhaseLocking(DataStore({"x": 0, "y": 0, "z": 0}))
    protocol._wait_for = _CountingWaitForGraph()
    return protocol


class TestDeadlockSearchShortcut:
    """The cycle search is skipped only when it could not find anything."""

    def test_two_cycle_closed_through_a_parked_blocker(self):
        protocol = _counting_2pl()
        for txn in (1, 2):
            protocol.begin(txn)
        protocol.write(1, "x", 1)
        protocol.write(2, "y", 2)
        assert protocol.write(1, "y", 3).blocked  # 2 is running: nothing to search
        assert protocol._wait_for.searches == 0
        # the closing edge's blocker (1) is itself parked on 2
        closing = protocol.write(2, "x", 4)
        assert protocol._wait_for.searches == 1
        assert protocol.metrics.count("2pl.deadlocks") == 1
        assert closing.aborted

    def test_three_cycle_closed_through_a_parked_blocker(self):
        protocol = _counting_2pl()
        for txn in (1, 2, 3):
            protocol.begin(txn)
        protocol.write(1, "x", 1)
        protocol.write(2, "y", 2)
        protocol.write(3, "z", 3)
        assert protocol.write(2, "z", 4).blocked  # 2 -> 3, 3 running
        assert protocol.write(3, "x", 5).blocked  # 3 -> 1, 1 running
        assert protocol._wait_for.searches == 0
        # the oldest closes 1 -> 2 -> 3 -> 1; its blocker (2) is parked
        closing = protocol.write(1, "y", 6)
        assert protocol._wait_for.searches == 1
        assert protocol.metrics.count("2pl.deadlocks") == 1
        assert closing.aborted

    def test_no_search_while_nobody_waits_for_the_requester(self):
        """A cycle through the requester needs an edge *into* it.  Joining
        a queue adds one edge out (to the holder for the head, to the
        queue predecessor behind it); a requester that holds nothing
        anyone queued for is on no cycle, however long the chain of
        waiting predecessors its edge leads into."""
        protocol = _counting_2pl()
        for txn in range(1, 8):
            protocol.begin(txn)
        protocol.write(1, "x", 1)
        assert protocol.write(2, "x", 2).blocked_on == (1,)  # head: the holder
        for txn in range(3, 8):
            # behind the head: the predecessor, itself waiting
            assert protocol.write(txn, "x", txn).blocked_on == (txn - 1,)
        assert protocol._wait_for.searches == 0
        assert protocol.metrics.count("2pl.deadlocks") == 0

    def test_blocker_with_only_stale_wait_edges_is_still_searched(self):
        protocol = _counting_2pl()
        for txn in (1, 2, 3, 4):
            protocol.begin(txn)
        protocol.write(1, "x", 1)
        # a leftover edge out of the running holder: 3 holds nothing and
        # waits for nobody, so no cycle exists ...
        protocol._wait_for.add_wait(1, 3)
        assert protocol.write(2, "x", 2).blocked
        assert protocol._wait_for.searches == 0  # ... and nobody waits for 2
        # with a leftover edge *into* the requester as well only a search
        # can tell: stale edges turn the shortcut off, they never hide a cycle
        protocol._wait_for.add_wait(4, 2)
        assert protocol.write(2, "x", 2).blocked
        assert protocol._wait_for.searches == 1
        assert protocol.metrics.count("2pl.deadlocks") == 0


class TestRegistryValidation:
    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: get_entry("two-phase"), KeyError),
            (lambda: ProtocolEntry("p", SerialProtocol, "linearizable"), ValueError),
        ],
        ids=["unknown-name", "unknown-guarantee"],
    )
    def test_bad_lookups_and_entries_rejected(self, build, error):
        with pytest.raises(error):
            build()


class TestHookDefaults:
    """What a protocol that overrides none of the optional hooks does:
    commits in one stage, offers no read-only snapshot, and treats a
    fast-path reader's abort as a release."""

    def test_single_stage_commit_and_no_snapshot_reads(self, store):
        protocol = SerialProtocol(store)
        protocol.begin(1)
        assert protocol.on_prepare_commit(1) is None
        assert protocol.readonly_snapshot() is None
        with pytest.raises(NotImplementedError, match="snapshot reads"):
            protocol.snapshot_read("x", 0)
        assert protocol.abort_fast_reader(None, 0) is None
        assert protocol.commit(1).granted


class TestTimestampOrdering:
    def test_older_reader_aborts_after_newer_write(self, store):
        protocol = TimestampOrdering(store)
        protocol.begin(1)  # ts 0
        protocol.begin(2)  # ts 1
        assert protocol.write(2, "x", 5).granted
        assert protocol.read(1, "x").aborted

    def test_older_writer_aborts_after_newer_read(self, store):
        protocol = TimestampOrdering(store)
        protocol.begin(1)
        protocol.begin(2)
        assert protocol.read(2, "x").granted
        assert protocol.write(1, "x", 7).aborted

    def test_timestamp_order_execution_is_granted(self, store):
        protocol = TimestampOrdering(store)
        protocol.begin(1)
        protocol.begin(2)
        assert protocol.read(1, "x").granted
        assert protocol.write(1, "x", 1).granted
        assert protocol.commit(1).granted
        assert protocol.read(2, "x").granted
        assert protocol.write(2, "x", 2).granted
        assert protocol.commit(2).granted
        assert store.read("x") == 2

    def test_thomas_write_rule_skips_obsolete_write(self, store):
        protocol = TimestampOrdering(store, thomas_write_rule=True)
        protocol.begin(1)
        protocol.begin(2)
        assert protocol.write(2, "x", 20).granted
        assert protocol.commit(2).granted
        late = protocol.write(1, "x", 10)
        assert late.granted and late.skip_effect
        assert protocol.commit(1).granted
        assert store.read("x") == 20
        assert protocol.metrics.count("to.skipped_writes") == 1


class TestSerializationGraphTesting:
    def test_conflicting_cycle_aborts_second_transaction(self, store):
        protocol = SerializationGraphTesting(store)
        protocol.begin(1)
        protocol.begin(2)
        assert protocol.read(1, "x").granted
        assert protocol.read(2, "y").granted
        assert protocol.write(1, "y", 1).granted   # reader 2 precedes writer 1: 2 -> 1
        closing = protocol.write(2, "x", 2)        # would add 1 -> 2: cycle
        assert closing.aborted
        assert protocol.metrics.count("sgt.cycles_prevented") == 1

    def test_pending_write_blocks_concurrent_reader(self, store):
        protocol = SerializationGraphTesting(store)
        protocol.begin(1)
        protocol.begin(2)
        assert protocol.write(1, "x", 1).granted
        blocked = protocol.read(2, "x")
        assert blocked.blocked and blocked.blocked_on == (1,)
        assert protocol.commit(1).granted
        assert protocol.read(2, "x").value == 1

    def test_acyclic_interleaving_fully_granted(self, store):
        protocol = SerializationGraphTesting(store)
        protocol.begin(1)
        protocol.begin(2)
        assert protocol.read(1, "x").granted
        assert protocol.write(1, "x", 1).granted
        assert protocol.read(2, "y").granted
        assert protocol.write(2, "y", 2).granted
        assert protocol.commit(1).granted
        assert protocol.commit(2).granted
        assert protocol.committed_history_serializable()
        assert store.snapshot() == {"x": 1, "y": 2}

    def test_aborted_transaction_leaves_no_trace(self, store):
        protocol = SerializationGraphTesting(store)
        protocol.begin(1)
        protocol.begin(2)
        protocol.write(1, "x", 1)
        assert protocol.read(2, "x").blocked
        protocol.abort(1)
        assert 1 not in protocol.graph
        assert protocol.read(2, "x").granted
        assert protocol.read(2, "x").value == 0

    def test_committed_sources_are_pruned(self, store):
        protocol = SerializationGraphTesting(store)
        protocol.begin(1)
        protocol.write(1, "x", 1)
        protocol.commit(1)
        assert 1 not in protocol.graph


class TestOptimisticConcurrencyControl:
    def test_reads_and_writes_never_block(self, store):
        protocol = OptimisticConcurrencyControl(store)
        protocol.begin(1)
        protocol.begin(2)
        assert protocol.read(1, "x").granted
        assert protocol.write(2, "x", 9).granted

    def test_validation_fails_when_read_set_overwritten(self, store):
        protocol = OptimisticConcurrencyControl(store)
        protocol.begin(1)
        protocol.begin(2)
        protocol.read(1, "x")
        protocol.write(2, "x", 9)
        assert protocol.commit(2).granted
        failed = protocol.commit(1)
        assert failed.aborted
        assert protocol.metrics.count("occ.validation_failures") == 1

    def test_validation_succeeds_for_disjoint_footprints(self, store):
        protocol = OptimisticConcurrencyControl(store)
        protocol.begin(1)
        protocol.begin(2)
        protocol.read(1, "x")
        protocol.write(1, "x", 1)
        protocol.read(2, "y")
        protocol.write(2, "y", 2)
        assert protocol.commit(1).granted
        assert protocol.commit(2).granted
        assert store.snapshot() == {"x": 1, "y": 2}

    def test_transaction_started_after_commit_is_not_invalidated(self, store):
        protocol = OptimisticConcurrencyControl(store)
        protocol.begin(1)
        protocol.write(1, "x", 1)
        protocol.commit(1)
        protocol.begin(2)
        protocol.read(2, "x")
        assert protocol.commit(2).granted


class TestPendingWriterIndex:
    """Satellite: pending_writers is served from a per-key index, kept
    exact across write/commit/abort, instead of scanning every buffer."""

    def test_index_tracks_write_commit_abort(self, store):
        protocol = SerialProtocol(store)
        protocol.begin(1)
        assert protocol.pending_writers("x") == []
        protocol.write(1, "x", 5)
        assert protocol.pending_writers("x") == [1]
        assert protocol.pending_writers("x", exclude=1) == []
        protocol.commit(1)
        assert protocol.pending_writers("x") == []
        assert protocol._pending_writer_index == {}

    def test_abort_clears_the_index(self, store):
        protocol = SerialProtocol(store)
        protocol.begin(1)
        protocol.write(1, "x", 5)
        protocol.write(1, "y", 6)
        protocol.abort(1)
        assert protocol.pending_writers("x") == []
        assert protocol.pending_writers("y") == []
        assert protocol._pending_writer_index == {}

    def test_result_is_sorted_for_determinism(self, store):
        protocol = SerializationGraphTesting(store)
        for txn in (5, 3, 9):
            protocol.begin(txn)
        # write x under SGT: 3 then 9 block behind 5's pending write, so
        # drive the buffers directly through the base-class bookkeeping
        protocol.write_buffers[5]["x"] = 1
        protocol.write_buffers[3]["x"] = 1
        protocol.write_buffers[9]["x"] = 1
        protocol._pending_writer_index["x"] = {9, 5, 3}
        assert protocol.pending_writers("x") == [3, 5, 9]
        assert protocol.pending_writers("x", exclude=5) == [3, 9]

    def test_skip_effect_writes_do_not_enter_the_index(self, store):
        protocol = TimestampOrdering(store, thomas_write_rule=True)
        protocol.begin(1)
        protocol.begin(2)
        assert protocol.write(2, "x", 2).granted
        # T1's write is obsolete under the Thomas rule: granted, no effect
        decision = protocol.write(1, "x", 1)
        assert decision.granted and decision.skip_effect
        assert protocol.pending_writers("x") == [2]


class TestConflictGraphLinearConstruction:
    """Satellite: committed_conflict_graph groups events per key and adds
    nearest-conflict edges only — same cycles, linear construction."""

    def _naive_graph(self, protocol):
        """The original all-pairs construction, as the reference oracle."""
        from repro.util.graphs import DiGraph

        events = []
        graph = DiGraph()
        for commit_position, txn_id, trail in protocol.committed_log():
            graph.add_node(txn_id)
            written = set()
            for position, kind, key in trail:
                if kind == "read":
                    events.append((position, txn_id, "read", key))
                elif key not in written:
                    written.add(key)
                    events.append((commit_position, txn_id, "write", key))
        events.sort(key=lambda e: e[0])
        for i, (_, txn_a, kind_a, key_a) in enumerate(events):
            for _, txn_b, kind_b, key_b in events[i + 1:]:
                if txn_a == txn_b or key_a != key_b:
                    continue
                if kind_a == "write" or kind_b == "write":
                    graph.add_edge(txn_a, txn_b)
        return graph

    def _reachability(self, graph):
        return {
            node: frozenset(graph.reachable_from(node)) for node in graph.nodes()
        }

    def test_reachability_matches_all_pairs_reference(self):
        """Omitted edges are transitively implied: same closure, same cycles."""
        import random

        from repro.engine.runtime import TransactionExecutor
        from repro.engine.workloads import (
    WorkloadConfig,
    hotspot_queue_workload,
    zipfian_hotspot_workload,
)

        initial, specs = zipfian_hotspot_workload(
            num_transactions=25,
            config=WorkloadConfig(num_keys=6, read_fraction=0.5),
            seed=21,
        )
        protocol = SerializationGraphTesting(DataStore(initial))
        TransactionExecutor(protocol, max_attempts=400, seed=3).run(specs)
        fast = protocol.committed_conflict_graph()
        naive = self._naive_graph(protocol)
        assert set(fast.nodes()) == set(naive.nodes())
        assert self._reachability(fast) == self._reachability(naive)
        assert fast.has_cycle() == naive.has_cycle()

    def test_regression_5k_operation_log(self):
        """A 5k-operation committed history yields a graph with no more
        edges than events; the all-pairs construction would draw ~247k
        here (100 events on each of 50 keys)."""
        protocol = SerialProtocol(DataStore({f"k{i}": 0 for i in range(50)}))
        # 1000 transactions, 5 ops each, round-robin over 50 keys
        for txn in range(1, 1001):
            protocol.begin(txn)
            for op in range(5):
                key = f"k{(txn * 5 + op) % 50}"
                if op % 2:
                    assert protocol.read(txn, key).granted
                else:
                    assert protocol.write(txn, key, txn).granted
            assert protocol.commit(txn).granted
        history = protocol.committed_log()
        events = sum(len(trail) for _, _, trail in history)
        assert len(history) == 1000 and events == 5000
        graph = protocol.committed_conflict_graph()
        assert len(graph) == 1000
        assert len(graph.edges()) <= events
        assert not graph.has_cycle()
