"""Scheduler tests: run-queue vs round-scan equivalence, RunQueue unit
behaviour, pinned random-mode digests, and kernel attach/detach.

The ISSUE-5 tentpole swapped the executor's O(live)-per-round scan for a
run queue; these tests pin the contract of that swap:

* under ``round-robin`` and ``serial`` interleaving the two schedulers
  produce byte-identical executions — same ``ExecutionResult`` counters
  and same conformance-harness replay digests — across the full
  protocol registry and both wait policies;
* under ``random`` interleaving the run queue draws from the runnable
  set (a different, still deterministic sequence): its digests are
  pinned as constants so any future scheduling change is a conscious
  one.
"""

import pytest

from repro.engine.kernel import EngineKernel, RunQueue
from repro.engine.protocols.base import SerialProtocol
from repro.engine.protocols.registry import PROTOCOL_ENTRIES
from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking
from repro.engine.runtime import ExecutionStuck, TransactionExecutor, run_batch
from repro.engine.storage import DataStore
from repro.engine.workloads import (
    WorkloadConfig,
    hotspot_queue_workload,
    zipfian_hotspot_workload,
)
from repro.harness.recorder import HistoryRecorder
from repro.harness.runner import run_cell
from repro.harness.scenarios import build_scenario


def _workload(num_transactions=24, seed=5):
    return zipfian_hotspot_workload(
        num_transactions=num_transactions,
        config=WorkloadConfig(num_keys=12, read_fraction=0.4),
        seed=seed,
    )


def _run(entry_factory, initial, specs, scheduler, interleaving, wait_policy,
         max_concurrent=None):
    store = DataStore(initial)
    protocol = entry_factory(store)
    executor = TransactionExecutor(
        protocol,
        max_attempts=400,
        interleaving=interleaving,
        seed=9,
        wait_policy=wait_policy,
        max_concurrent=max_concurrent,
        scheduler=scheduler,
    )
    recorder = HistoryRecorder().attach(executor.kernel)
    result = executor.run(list(specs))
    return result, recorder.digest(protocol.store.snapshot())


COUNTER_FIELDS = (
    "committed",
    "aborted_attempts",
    "restarts",
    "gave_up",
    "operations_issued",
    "blocks",
)


class TestSchedulerEquivalence:
    """Satellite: same-seed run-queue vs legacy loop, full registry."""

    @pytest.mark.parametrize("wait_policy", ["event", "polling"])
    @pytest.mark.parametrize("interleaving", ["round-robin", "serial"])
    def test_identical_counters_and_digests_across_registry(
        self, interleaving, wait_policy
    ):
        initial, specs = _workload()
        for name, entry in PROTOCOL_ENTRIES.items():
            scan, scan_digest = _run(
                entry.factory, initial, specs, "round-scan", interleaving, wait_policy
            )
            rq, rq_digest = _run(
                entry.factory, initial, specs, "run-queue", interleaving, wait_policy
            )
            for field in COUNTER_FIELDS:
                assert getattr(rq, field) == getattr(scan, field), (name, field)
            assert rq.per_transaction == scan.per_transaction, name
            assert rq.store_snapshot == scan.store_snapshot, name
            assert rq_digest == scan_digest, name

    @pytest.mark.parametrize("max_concurrent", [1, 3, 7])
    def test_admission_control_equivalence(self, max_concurrent):
        """The run queue's admission threshold replays live[:k] exactly."""
        initial, specs = _workload(num_transactions=20, seed=8)
        for entry_name in ("strict-2pl", "sgt", "occ"):
            factory = PROTOCOL_ENTRIES[entry_name].factory
            scan, scan_digest = _run(
                factory, initial, specs, "round-scan", "round-robin", "event",
                max_concurrent=max_concurrent,
            )
            rq, rq_digest = _run(
                factory, initial, specs, "run-queue", "round-robin", "event",
                max_concurrent=max_concurrent,
            )
            assert rq.per_transaction == scan.per_transaction, entry_name
            assert rq_digest == scan_digest, entry_name

    def test_harness_cells_agree_under_round_robin(self):
        """run_cell digests match between schedulers (harness-level check)."""
        scenario = build_scenario(3, quick=True, with_faults=False)
        for entry in PROTOCOL_ENTRIES.values():
            outcomes = {
                scheduler: run_cell(
                    entry, scenario, "executor", "event", quick=True,
                    scheduler=scheduler, interleaving="round-robin",
                )
                for scheduler in ("round-scan", "run-queue")
            }
            assert (
                outcomes["round-scan"].digest == outcomes["run-queue"].digest
            ), entry.name
            assert outcomes["run-queue"].ok, entry.name

    def test_faulty_cells_agree_under_round_robin(self):
        """Equivalence must survive fault injection (stalls and aborts)."""
        scenario = build_scenario(6, quick=True, with_faults=True)
        assert scenario.fault_spec is not None
        entry = PROTOCOL_ENTRIES["strict-2pl"]
        digests = {
            scheduler: run_cell(
                entry, scenario, "executor", "event", quick=True,
                scheduler=scheduler, interleaving="round-robin",
            ).digest
            for scheduler in ("round-scan", "run-queue")
        }
        assert digests["round-scan"] == digests["run-queue"]


#: random-mode digests under the run queue (draws from the runnable set):
#: regenerated only when the scheduling sequence deliberately changes
#: (last: the two strict-2pl entries, when locks got FIFO request queues).
#: Stable across PYTHONHASHSEED — every ordering decision in the engine
#: is sorted or insertion-ordered, never str-set-ordered.
PINNED_RANDOM_DIGESTS = {
    "serial/event": "53743bd92c0df2d3e2f98ff4b85c750e135f5d6258e36cfc23b170f1129332e0",
    "serial/polling": "277a0652c96d8795b72ba80c2f1af94f33ba06480cfdf0d4700178e7bfbb5fbf",
    "strict-2pl/event": "e6897dbbf3a2e8d7831ad5de738b25d73d944e9441d2ec62cc5ac143970c0ecf",
    "strict-2pl/polling": "469014d582c72b077c5273e08e043039021fd0f9c68b21c69b5d7f345aefbcc3",
    "sgt/event": "00211a14a9c02476db3c6b5687a69031492888d1803031a5b6a515ff3651a5c4",
    "sgt/polling": "55c2a165774475b739e76365ea203ef49a3a99221baa8271a8629dd1137237f4",
    "timestamp/event": "2a61e93d7d0a2da55426de8ddf5540d8f9735f13a558ca40f473e960a8f73693",
    "timestamp/polling": "6db144808d91a0e172046f1e86419c657fd1e355f29c15f006216e6eb2a8c870",
    "occ/event": "024746ed6cd2c9a03e185c71634c3873445e973f979a46f1a771dff753e80ae8",
    "occ/polling": "024746ed6cd2c9a03e185c71634c3873445e973f979a46f1a771dff753e80ae8",
    "occ-parallel/event": "72f6d9c3394ecabc3f9130cf2f1be0cb7d512464317f78fa7e37f9e4551942f4",
    "occ-parallel/polling": "72f6d9c3394ecabc3f9130cf2f1be0cb7d512464317f78fa7e37f9e4551942f4",
    "mvto/event": "c9c26c3c0e3e7004e7bf3b7163e78007f83d75ec9187a4aea2e74f352c8df658",
    "mvto/polling": "c9c26c3c0e3e7004e7bf3b7163e78007f83d75ec9187a4aea2e74f352c8df658",
    "si/event": "95ff45dfabc7c97daec545734593f23fb1fd294b7576f99657084edcb87f87ca",
    "si/polling": "95ff45dfabc7c97daec545734593f23fb1fd294b7576f99657084edcb87f87ca",
    "serializable-si/event": "95ff45dfabc7c97daec545734593f23fb1fd294b7576f99657084edcb87f87ca",
    "serializable-si/polling": "95ff45dfabc7c97daec545734593f23fb1fd294b7576f99657084edcb87f87ca",
    # all four deterministic digests coincide by design: the sequencer
    # pre-orders the batch, so wait policy and the epoch barrier change
    # who blocks when but never the committed history
    "det-epoch/event": "319737fdbede02bfe785dfd34b37de3304b10de914e15fbc8b23303e4eb494bd",
    "det-epoch/polling": "319737fdbede02bfe785dfd34b37de3304b10de914e15fbc8b23303e4eb494bd",
    "det-slot/event": "319737fdbede02bfe785dfd34b37de3304b10de914e15fbc8b23303e4eb494bd",
    "det-slot/polling": "319737fdbede02bfe785dfd34b37de3304b10de914e15fbc8b23303e4eb494bd",
}


class TestRandomModeDigests:
    def test_random_run_queue_digests_are_pinned(self):
        initial, specs = _workload()
        for name, entry in PROTOCOL_ENTRIES.items():
            for wait_policy in ("event", "polling"):
                result, digest = _run(
                    entry.factory, initial, specs, "run-queue", "random", wait_policy
                )
                assert result.committed == len(specs), (name, wait_policy)
                assert digest == PINNED_RANDOM_DIGESTS[f"{name}/{wait_policy}"], (
                    name, wait_policy,
                )

    def test_random_run_queue_is_deterministic(self):
        initial, specs = _workload(seed=13)
        first = _run(
            PROTOCOL_ENTRIES["strict-2pl"].factory, initial, specs,
            "run-queue", "random", "event",
        )
        second = _run(
            PROTOCOL_ENTRIES["strict-2pl"].factory, initial, specs,
            "run-queue", "random", "event",
        )
        assert first[1] == second[1]
        assert first[0].per_transaction == second[0].per_transaction


class TestRunQueueStructure:
    def test_rounds_drain_in_ascending_order(self):
        rq = RunQueue()
        for sid in (5, 1, 3):
            rq.push_next(sid)
        assert rq.advance()
        assert [rq.pop(), rq.pop(), rq.pop()] == [1, 3, 5]
        assert rq.pop() is None

    def test_wake_routing_respects_the_cursor(self):
        rq = RunQueue()
        for sid in (1, 4):
            rq.push_next(sid)
        rq.advance()
        assert rq.pop() == 1
        rq.push_wake(7)   # ahead of the cursor: still due this round
        rq.push_wake(0)   # behind the cursor: next round
        assert rq.pop() == 4
        assert rq.pop() == 7
        assert rq.pop() is None
        assert rq.advance()
        assert rq.pop() == 0

    def test_cooldown_wheel_skips_empty_rounds(self):
        rq = RunQueue()
        rq.push_next(2)
        rq.advance()
        assert rq.pop() == 2
        rq.schedule_cooldown(2, cooldown=5)
        assert rq.cooling
        assert rq.advance()
        # jumped straight to the expiry round instead of burning five
        # empty rounds one by one
        assert rq.round == 1 + 5 + 1
        assert rq.expired_cooldowns() == [2]
        assert not rq.cooling

    def test_advance_false_when_nothing_pending(self):
        rq = RunQueue()
        assert not rq.advance()
        rq.push_next(0)
        assert rq.advance()
        assert rq.pop() == 0
        assert not rq.advance()

    def test_advance_refuses_undrained_round(self):
        rq = RunQueue()
        rq.push_next(0)
        rq.advance()
        with pytest.raises(RuntimeError):
            rq.advance()

    def test_drain_current_returns_sorted_bucket(self):
        rq = RunQueue()
        for sid in (9, 2, 6):
            rq.push_next(sid)
        rq.advance()
        assert rq.drain_current() == [2, 6, 9]
        assert rq.pop() is None
        assert len(rq) == 0


class TestSchedulerScale:
    def test_run_queue_visits_stay_proportional_to_runnable(self):
        """The deadlock-free hotspot queue commits everything, restart-free,
        with identical counters under both schedulers — the benchmark's
        invariant, at test scale."""
        initial, specs = hotspot_queue_workload(
            num_transactions=60, ops_per_transaction=6, num_hot=2, num_cold=8,
            seed=3,
        )
        results = {
            scheduler: run_batch(
                StrictTwoPhaseLocking,
                DataStore(initial),
                specs,
                seed=3,
                scheduler=scheduler,
            )
            for scheduler in ("round-scan", "run-queue")
        }
        for result in results.values():
            assert result.committed == 60
            assert result.restarts == 0
            assert result.committed_serializable
        assert (
            results["run-queue"].per_transaction
            == results["round-scan"].per_transaction
        )

    def test_stuck_detection_still_raises(self):
        """A session parked on a blocker that never resolves must raise
        ExecutionStuck, not hang — the run queue drains to empty."""

        from repro.engine.operations import TransactionSpec, increment_op

        specs = [
            TransactionSpec([increment_op("x")], name=f"t{i}") for i in range(3)
        ]
        store = DataStore({"x": 0})
        protocol = SerialProtocol(store)
        # sabotage: drop all finish notifications so waiters never wake
        protocol._notify_finished = lambda *args: None
        executor = TransactionExecutor(protocol, scheduler="run-queue")
        with pytest.raises(ExecutionStuck):
            executor.run(specs)


class TestKernelLifecycle:
    def test_finished_kernel_detaches_from_protocol(self):
        """Two sequential executors over one protocol must not cross-talk:
        the first run's kernel unsubscribes when its run completes."""
        from repro.engine.operations import TransactionSpec, increment_op

        store = DataStore({"x": 0})
        protocol = StrictTwoPhaseLocking(store)
        specs = [TransactionSpec([increment_op("x")], name="a")]
        first = TransactionExecutor(protocol)
        first.run(specs)
        assert protocol._finish_listeners == []  # first kernel detached
        second = TransactionExecutor(protocol)
        assert len(protocol._finish_listeners) == 1  # only the second kernel
        result = second.run([TransactionSpec([increment_op("x")], name="b")])
        assert result.committed == 1
        assert store.read("x") == 2
        # both runs done: both kernels detached
        assert protocol._finish_listeners == []
        assert protocol._wake_listeners == []

    def test_detach_is_idempotent(self):
        store = DataStore({"x": 0})
        protocol = SerialProtocol(store)
        kernel = EngineKernel(protocol)
        kernel.detach()
        kernel.detach()
        assert protocol._finish_listeners == []
        kernel.attach()
        kernel.attach()
        assert len(protocol._finish_listeners) == 1
