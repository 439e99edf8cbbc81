"""Scheduler tests: the frozen round-scan verdicts, RunQueue unit
behaviour, pinned random-mode digests, and kernel attach/detach.

The executor's run queue replaced a loop that rescanned every live
session each round.  Under ``round-robin`` and ``serial`` interleaving
the two were byte-identical — same protocol-interaction order, same
commit order, same counters — and the scan stayed beside the run queue
as the reference it was checked against.  The scan is gone; its
verdicts are kept as constants, generated *by the scan* on commit
``b8547c1`` (the last one that had it) with the run queue run beside it
and agreeing, and the run queue must reproduce each one:

* the admission-control cells (``max_concurrent`` 1/3/7 x
  ``strict-2pl``/``sgt``/``occ``): ``per_transaction`` plus the
  recorder's history digest;
* the conformance harness's round-robin ``run_cell`` digest of every
  registered protocol on scenario 3, and on the faulty scenario 6
  (injected stalls and aborts);
* ``per_transaction`` of the hotspot-queue batch in
  :class:`TestSchedulerScale`.

The registry-wide round-robin/serial equivalence needs no pins here: its
batch (24 zipfian transactions on 12 keys, seed 5), engine seed (9) and
``max_attempts`` (400) are those of ``tests/test_engine_hotpath.py``'s
``hotspot`` cells, whose scan and run-queue constants were identical and
whose run-queue constants that file keeps.

Under ``random`` interleaving the run queue draws from the runnable set;
its digests are pinned as constants so any future scheduling change is a
conscious one.
"""

import hashlib
import json
from dataclasses import fields

import pytest

from repro.dist.paxos import ReplicationConfig
from repro.dist.tpc import TpcConfig
from repro.engine.kernel import EngineKernel, RunQueue, Session
from repro.engine.parallel import ParallelShardRunner
from repro.engine.protocols.base import SerialProtocol
from repro.engine.protocols.registry import PROTOCOL_ENTRIES
from repro.engine.protocols.sgt import SerializationGraphTesting
from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking
from repro.engine.runtime import (
    ExecutionStuck,
    TransactionExecutor,
    run_batch,
    run_sharded_batch,
)
from repro.engine.simulator import SimulationConfig, SimulationReport
from repro.engine.storage import DataStore, ShardedDataStore
from repro.engine.workloads import (
    WorkloadConfig,
    hotspot_queue_workload,
    zipfian_hotspot_workload,
)
from repro.harness.recorder import HistoryRecorder
from repro.harness.runner import run_cell, run_seed, shrink_failing_scenario
from repro.harness.scenarios import build_scenario
from repro.obs.chrome import chrome_trace


def _sha(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _workload(num_transactions=24, seed=5):
    return zipfian_hotspot_workload(
        num_transactions=num_transactions,
        config=WorkloadConfig(num_keys=12, read_fraction=0.4),
        seed=seed,
    )


def _run(entry_factory, initial, specs, interleaving, max_concurrent=None):
    store = DataStore(initial)
    protocol = entry_factory(store)
    executor = TransactionExecutor(
        protocol,
        max_attempts=400,
        interleaving=interleaving,
        seed=9,
        max_concurrent=max_concurrent,
    )
    recorder = HistoryRecorder().attach(executor.kernel)
    result = executor.run(list(specs))
    return result, recorder.digest(protocol.store.snapshot())


#: generated by the round scan on commit b8547c1; do not edit
ROUND_SCAN_ADMISSION = {
    "strict-2pl/1": "b7bf5aa7b4202d2457653b2976a87eebab4afa4481160b3ab5571372ee3ce31a",
    "sgt/1": "b7bf5aa7b4202d2457653b2976a87eebab4afa4481160b3ab5571372ee3ce31a",
    "occ/1": "b7bf5aa7b4202d2457653b2976a87eebab4afa4481160b3ab5571372ee3ce31a",
    "strict-2pl/3": "ce34a88223c6a8147f8cbb4c22169bcf06c1b81621ef9f8a56881e8cd4405658",
    "sgt/3": "b50fb9f314f8a6f6bddad742031d576e471d7cfeabd83a109288e2b9161f0878",
    "occ/3": "15c9066df87bc1248801ca9784ffb713158e1be6dafa9ddd2cb9c3bd55ae68c4",
    "strict-2pl/7": "1b2a3bf389f2f45c983be897819493813d9757c41e744e0a2f98ff4f6dc1bded",
    "sgt/7": "fd7663ecf5a6cfbe811395e6c0b6c22b85e8e05f1fb67a6974e508643ea17e4b",
    "occ/7": "3bfca8a34527bf66251ee9829ee06acd1466ff53801e82b05d3392d32dd5726c",
}

#: generated by the round scan on commit b8547c1; do not edit
ROUND_SCAN_CLEAN_CELLS = {
    "serial": "2e55b4d51ba5a0ae64406746464493bf1df86109d3cade32de5b7b89b5f6c814",
    "strict-2pl": "8be063d3f40d73335a5f19b3a360e0e9182ddff8af828c7bd186f31e956b0f02",
    "sgt": "e98281ec17059caba58ae57596a13e29087575af925ac0c658bf8c24bd5d4414",
    "timestamp": "29c6de7604fb89b5a2625d237bbde83892abea04f380e9060b60b99c5e4fb256",
    "occ": "8be063d3f40d73335a5f19b3a360e0e9182ddff8af828c7bd186f31e956b0f02",
    "occ-parallel": "8be063d3f40d73335a5f19b3a360e0e9182ddff8af828c7bd186f31e956b0f02",
    "mvto": "252847caeab1ac2890142c444bcf3d63e950db8f67006c0e21df9d0ec86f4284",
    "si": "fcf61bbec79fb75e54ec514790fa54256829bebaae5dd7dd2915ae0763470d56",
    "serializable-si": "8be063d3f40d73335a5f19b3a360e0e9182ddff8af828c7bd186f31e956b0f02",
    "det-epoch": "2e55b4d51ba5a0ae64406746464493bf1df86109d3cade32de5b7b89b5f6c814",
    "det-slot": "2e55b4d51ba5a0ae64406746464493bf1df86109d3cade32de5b7b89b5f6c814",
}

#: generated by the round scan on commit b8547c1; do not edit
ROUND_SCAN_FAULTY_CELLS = {
    "serial": "a73679ba93896f228045d58729fa2b6455da11a1eb7cc6da072c078f5af45e8e",
    "strict-2pl": "c2373866249f736c5632cf36549a2b678f3f3b14295ef478e3b8fa7a7ca70b7e",
    "sgt": "31f27f3e1363798b079247bce12231844942dc2d7c3327e20cf04006db209f6d",
    "timestamp": "d1ae9a03e5892df0a48b4279547e315aca56f6aa015bcfeac7ec4db23e3f4871",
    "occ": "59b10084cbd6c4ce8a5ccf4aad7b25c5604b99d3df9feb830293307040717d32",
    "occ-parallel": "59b10084cbd6c4ce8a5ccf4aad7b25c5604b99d3df9feb830293307040717d32",
    "mvto": "36744184ae4e0759f6c699a9b21fba616fb8ebd7e69de195ee937cd6d12ad44c",
    "si": "71817cfc1632454e957da2588be4df0ff259072433351cf362e9c0bbd2133c97",
    "serializable-si": "76fec738f3e53156fecb4305adf4f4440bb6c7f91cb24f0b761edff07b347b9b",
    "det-epoch": "a73679ba93896f228045d58729fa2b6455da11a1eb7cc6da072c078f5af45e8e",
    "det-slot": "a73679ba93896f228045d58729fa2b6455da11a1eb7cc6da072c078f5af45e8e",
}
ROUND_SCAN_SCALE = "2eb9e9dc95acb3a82e6343e523014a9a00121a7263e7068891926dc701e4cf37"


class TestSchedulerEquivalence:
    """The run queue reproduces the round scan's frozen verdicts."""

    def test_every_registered_protocol_is_pinned(self):
        for pins in (ROUND_SCAN_CLEAN_CELLS, ROUND_SCAN_FAULTY_CELLS):
            assert sorted(pins) == sorted(PROTOCOL_ENTRIES)

    @pytest.mark.parametrize("max_concurrent", [1, 3, 7])
    @pytest.mark.parametrize("entry_name", ["strict-2pl", "sgt", "occ"])
    def test_admission_control_equivalence(self, entry_name, max_concurrent):
        """The run queue's admission threshold replays live[:k] exactly."""
        initial, specs = _workload(num_transactions=20, seed=8)
        result, digest = _run(
            PROTOCOL_ENTRIES[entry_name].factory, initial, specs, "round-robin",
            max_concurrent=max_concurrent,
        )
        verdict = _sha({"per_transaction": result.per_transaction, "history": digest})
        assert verdict == ROUND_SCAN_ADMISSION[f"{entry_name}/{max_concurrent}"]

    @pytest.mark.parametrize("entry_name", list(PROTOCOL_ENTRIES))
    def test_harness_cells_agree_under_round_robin(self, entry_name):
        """run_cell digests match the scan's (harness-level check)."""
        scenario = build_scenario(3, quick=True, with_faults=False)
        outcome = run_cell(
            PROTOCOL_ENTRIES[entry_name], scenario, "executor", quick=True,
            interleaving="round-robin",
        )
        assert outcome.digest == ROUND_SCAN_CLEAN_CELLS[entry_name]
        assert outcome.ok

    @pytest.mark.parametrize("entry_name", list(PROTOCOL_ENTRIES))
    def test_faulty_cells_agree_under_round_robin(self, entry_name):
        """Equivalence must survive fault injection (stalls and aborts)."""
        scenario = build_scenario(6, quick=True, with_faults=True)
        assert scenario.fault_spec is not None
        outcome = run_cell(
            PROTOCOL_ENTRIES[entry_name], scenario, "executor", quick=True,
            interleaving="round-robin",
        )
        assert outcome.digest == ROUND_SCAN_FAULTY_CELLS[entry_name]
        assert outcome.ok


#: random-mode digests under the run queue (draws from the runnable set):
#: regenerated only when the scheduling sequence deliberately changes
#: (last: the two strict-2pl entries, when locks got FIFO request queues).
#: Stable across PYTHONHASHSEED — every ordering decision in the engine
#: is sorted or insertion-ordered, never str-set-ordered.
PINNED_RANDOM_DIGESTS = {
    "serial/event": "53743bd92c0df2d3e2f98ff4b85c750e135f5d6258e36cfc23b170f1129332e0",
    "strict-2pl/event": "e6897dbbf3a2e8d7831ad5de738b25d73d944e9441d2ec62cc5ac143970c0ecf",
    "sgt/event": "00211a14a9c02476db3c6b5687a69031492888d1803031a5b6a515ff3651a5c4",
    "timestamp/event": "2a61e93d7d0a2da55426de8ddf5540d8f9735f13a558ca40f473e960a8f73693",
    "occ/event": "024746ed6cd2c9a03e185c71634c3873445e973f979a46f1a771dff753e80ae8",
    "occ-parallel/event": "72f6d9c3394ecabc3f9130cf2f1be0cb7d512464317f78fa7e37f9e4551942f4",
    "mvto/event": "c9c26c3c0e3e7004e7bf3b7163e78007f83d75ec9187a4aea2e74f352c8df658",
    "si/event": "95ff45dfabc7c97daec545734593f23fb1fd294b7576f99657084edcb87f87ca",
    "serializable-si/event": "95ff45dfabc7c97daec545734593f23fb1fd294b7576f99657084edcb87f87ca",
    # both deterministic digests coincide by design: the sequencer
    # pre-orders the batch, so the epoch barrier changes who blocks when
    # but never the committed history
    "det-epoch/event": "319737fdbede02bfe785dfd34b37de3304b10de914e15fbc8b23303e4eb494bd",
    "det-slot/event": "319737fdbede02bfe785dfd34b37de3304b10de914e15fbc8b23303e4eb494bd",
}


class TestRandomModeDigests:
    @pytest.mark.parametrize("name", list(PROTOCOL_ENTRIES))
    def test_random_run_queue_digests_are_pinned(self, name):
        initial, specs = _workload()
        result, digest = _run(PROTOCOL_ENTRIES[name].factory, initial, specs, "random")
        assert result.committed == len(specs)
        assert digest == PINNED_RANDOM_DIGESTS[f"{name}/event"]

    def test_random_run_queue_is_deterministic(self):
        initial, specs = _workload(seed=13)
        factory = PROTOCOL_ENTRIES["strict-2pl"].factory
        first = _run(factory, initial, specs, "random")
        second = _run(factory, initial, specs, "random")
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
        with the round scan's frozen per-transaction counters — the
        benchmark's invariant, at test scale."""
        initial, specs = hotspot_queue_workload(
            num_transactions=60, ops_per_transaction=6, num_hot=2, num_cold=8,
            seed=3,
        )
        result = run_batch(StrictTwoPhaseLocking, DataStore(initial), specs, seed=3)
        assert result.committed == 60
        assert result.restarts == 0
        assert result.committed_serializable
        assert _sha(result.per_transaction) == ROUND_SCAN_SCALE

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
        executor = TransactionExecutor(protocol)
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


class TestRemovedKnobs:
    """One scheduler loop, one wait policy: the keywords that selected
    the others are rejected, not accepted and ignored."""

    @pytest.mark.parametrize(
        "knob",
        [{"scheduler": "run-queue"}, {"wait_policy": "event"}],
        ids=["scheduler", "wait_policy"],
    )
    def test_executor_entry_points_reject_the_knob(self, knob):
        with pytest.raises(TypeError):
            TransactionExecutor(SerialProtocol(DataStore({"x": 0})), **knob)
        with pytest.raises(TypeError):
            run_batch(SerialProtocol, DataStore({"x": 0}), [], **knob)
        sharded = ShardedDataStore({"x": 0}, num_shards=2)
        with pytest.raises(TypeError):
            run_sharded_batch(SerialProtocol, sharded, [], **knob)
        with pytest.raises(TypeError):
            ParallelShardRunner(workers=1).run(SerialProtocol, sharded, [], **knob)

    def test_simulation_config_rejects_wait_policy(self):
        with pytest.raises(TypeError):
            SimulationConfig(wait_policy="event")
        assert "wait_policy" not in {f.name for f in fields(SimulationReport)}


def _rejects(build, **knob):
    return lambda: build(**knob)


#: every setting that only tests ever chose, deleted with the code path it
#: selected; each name must now be a TypeError where it used to be accepted
REMOVED_KEYWORDS = {
    **{
        f"TpcConfig.{name}": _rejects(TpcConfig, **{name: 1.0})
        for name in (
            "read_timeout",
            "vote_timeout",
            "ack_timeout",
            "status_timeout",
            "backoff",
            "max_backoff",
            "degraded_max_in_flight",
            "client_retry_delay",
        )
    },
    **{
        f"ReplicationConfig.{name}": _rejects(ReplicationConfig, **{name: 1.0})
        for name in ("election_timeout", "election_jitter", "lease_duration")
    },
    "StrictTwoPhaseLocking.deadlock_victim": _rejects(
        lambda **knob: StrictTwoPhaseLocking(DataStore({"x": 0}), **knob),
        deadlock_victim="youngest",
    ),
    "SerializationGraphTesting.prune_committed": _rejects(
        lambda **knob: SerializationGraphTesting(DataStore({"x": 0}), **knob),
        prune_committed=False,
    ),
    "ParallelShardRunner.mp_context": _rejects(ParallelShardRunner, mp_context=None),
    "chrome_trace.time_scale": _rejects(
        lambda **knob: chrome_trace([], **knob), time_scale=1.0
    ),
    "run_seed.shrink": _rejects(
        lambda **knob: run_seed(0, quick=True, **knob), shrink=False
    ),
    "shrink_failing_scenario.budget": _rejects(
        lambda **knob: shrink_failing_scenario(
            PROTOCOL_ENTRIES["serial"], build_scenario(0, quick=True), "executor", **knob
        ),
        budget=1,
    ),
    **{
        f"Session.{name}": _rejects(
            lambda **knob: Session(None, 0, **knob), **{name: None}
        )
        for name in (
            "txn_id",
            "op_index",
            "reads",
            "attempts",
            "committed",
            "given_up",
            "blocks",
            "operations_issued",
            "cooldown",
            "waiting",
            "waiting_on",
            "fast_snapshot",
            "validating",
        )
    },
}


class TestRemovedSettings:
    """One scheduler per registry entry, one place per count: the
    settings no caller outside the tests set are rejected, not ignored."""

    @pytest.mark.parametrize("name", sorted(REMOVED_KEYWORDS))
    def test_removed_keyword_is_rejected(self, name):
        with pytest.raises(TypeError):
            REMOVED_KEYWORDS[name]()

    def test_the_null_registry_is_gone(self):
        import repro.engine
        import repro.engine.metrics

        assert not hasattr(repro.engine.metrics, "NullMetrics")
        assert not hasattr(repro.engine, "NULL_METRICS")
