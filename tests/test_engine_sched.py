"""Scheduler tests: RunQueue unit behaviour, random-mode determinism,
stuck detection, sequential runs over one protocol and the removed
settings.  The scheduler's digests are the ``random`` and frozen
``round-scan-*`` groups of ``tests/pins.py``.
"""

import heapq
from dataclasses import fields

import pytest

from pins import run_recorded, zipfian_batch
from repro.dist.paxos import ReplicationConfig
from repro.dist.tpc import TpcConfig
from repro.engine.kernel import RunQueue, Session
from repro.engine.parallel import ParallelShardRunner
from repro.engine.protocols.base import Decision, SerialProtocol
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
from repro.harness.runner import Cell, run_cell, run_seed, shrink_failing_scenario
from repro.harness.scenarios import build_scenario
from repro.obs.chrome import chrome_trace


class TestRandomModeDigests:
    def test_random_run_queue_is_deterministic(self):
        initial, specs = zipfian_batch(seed=13)
        factory = PROTOCOL_ENTRIES["strict-2pl"].factory
        first = run_recorded(factory, initial, specs, "random")
        second = run_recorded(factory, initial, specs, "random")
        assert first[1] == second[1]
        assert first[0].per_transaction == second[0].per_transaction


def _pop(rq):
    """The next id of the current round, taken the way the executor's
    loop takes it: off the ``current`` heap, recorded in ``cursor``."""
    if not rq.current:
        return None
    rq.cursor = heapq.heappop(rq.current)
    return rq.cursor


class TestRunQueueStructure:
    def test_rounds_drain_in_ascending_order(self):
        rq = RunQueue()
        for sid in (5, 1, 3):
            rq.push_next(sid)
        assert rq.advance()
        assert [_pop(rq), _pop(rq), _pop(rq)] == [1, 3, 5]
        assert _pop(rq) is None

    def test_wake_routing_respects_the_cursor(self):
        rq = RunQueue()
        for sid in (1, 4):
            rq.push_next(sid)
        rq.advance()
        assert _pop(rq) == 1
        rq.push_wake(7)   # ahead of the cursor: still due this round
        rq.push_wake(0)   # behind the cursor: next round
        assert _pop(rq) == 4
        assert _pop(rq) == 7
        assert _pop(rq) is None
        assert rq.advance()
        assert _pop(rq) == 0

    def test_cooldown_wheel_skips_empty_rounds(self):
        rq = RunQueue()
        rq.push_next(2)
        rq.advance()
        assert _pop(rq) == 2
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
        assert _pop(rq) == 0
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
        assert _pop(rq) is None
        assert rq.current == [] and rq.next_round == [] and not rq.cooling


class TestSchedulerScale:
    def test_stuck_detection_still_raises(self):
        """A session parked on a blocker that never resolves must raise
        ExecutionStuck, not hang — the run queue drains to empty."""

        from repro.engine.operations import TransactionSpec, increment_op

        specs = [
            TransactionSpec([increment_op("x")], name=f"t{i}") for i in range(3)
        ]
        store = DataStore({"x": 0})
        protocol = SerialProtocol(store)
        executor = TransactionExecutor(protocol)
        # sabotage: drop the kernel's finish handling so waiters never wake
        executor.kernel._finished = lambda txn_id: None
        with pytest.raises(ExecutionStuck):
            executor.run(specs)


class _ScriptedLocking(StrictTwoPhaseLocking):
    """Strict 2PL that answers the first read of ``z`` with a block naming
    no live blocker (its session stops, still holding its locks, and
    retries next round) and aborts the first read of ``y``."""

    def __init__(self, store):
        super().__init__(store)
        self._scripted = {"z", "y"}

    def on_read(self, txn_id, key):
        if key in self._scripted:
            self._scripted.discard(key)
            if key == "z":
                return Decision.block(reason="scripted: no live blocker")
            return Decision.abort("scripted abort")
        return super().on_read(txn_id, key)


class TestSerialWakeWhileCooling:
    def test_a_session_woken_during_its_backoff_is_requeued_once(self, monkeypatch):
        """Under serial interleaving a restart drives on through its
        cooldown, so a session can park while it sits in the cooldown
        wheel.  Round 1: ``a`` takes x and stops on z; ``b`` aborts on
        y, restarts (cooldown 1), re-reads y and parks behind ``a``'s
        lock on x.  Round 2: ``a`` commits and wakes ``b``, which is
        still cooling, so the wake does not requeue it.  Round 3: the
        cooldown expires and requeues ``b`` — once."""
        from repro.engine.operations import TransactionSpec, read_op, write_op

        pushes = []
        for name in ("push_current", "push_next", "push_wake"):
            method = getattr(RunQueue, name)

            def spy(rq, session_id, _method=method, _name=name):
                pushes.append((rq.round, _name, session_id))
                _method(rq, session_id)

            monkeypatch.setattr(RunQueue, name, spy)
        specs = [
            TransactionSpec([write_op("x", 1), read_op("z")], name="a"),
            TransactionSpec([read_op("y"), write_op("x", 2)], name="b"),
        ]
        protocol = _ScriptedLocking(DataStore({"x": 0, "y": 0, "z": 0}))
        executor = TransactionExecutor(protocol, interleaving="serial")
        result = executor.run(specs)
        assert result.committed == 2 and result.restarts == 1
        assert result.per_transaction["b#1"]["attempts"] == 2
        assert executor.metrics.count("kernel.wakeups") == 1
        # the initial admission pushes both; b's only later push is the
        # expiry of its cooldown, in round 3
        assert pushes == [
            (0, "push_next", 0),
            (0, "push_next", 1),
            (3, "push_current", 1),
        ]
        assert protocol.store.read("x") == 2


class TestKernelLifecycle:
    def test_sequential_executors_over_one_protocol_do_not_cross_talk(self):
        """A finished run's kernel holds no subscription on the protocol,
        so a second executor over the same protocol runs on its own."""
        from repro.engine.operations import TransactionSpec, increment_op

        store = DataStore({"x": 0})
        protocol = StrictTwoPhaseLocking(store)
        specs = [TransactionSpec([increment_op("x")], name="a")]
        first = TransactionExecutor(protocol)
        first.run(specs)
        second = TransactionExecutor(protocol)
        result = second.run([TransactionSpec([increment_op("x")], name="b")])
        assert result.committed == 1
        assert store.read("x") == 2


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


def _shrink_a_conforming_cell(**knob):
    scenario = build_scenario(0, quick=True)

    def run(candidate, tracer=None):
        return run_cell(PROTOCOL_ENTRIES["serial"], candidate, "executor", True)

    return shrink_failing_scenario(Cell(scenario, run, ""), run(scenario), **knob)


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
    # the knob-free call is valid (TestShrink in test_harness_conformance),
    # so the TypeError can only come from the knob
    "shrink_failing_scenario.budget": _rejects(_shrink_a_conforming_cell, budget=1),
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
        import repro.engine.metrics

        assert not hasattr(repro.engine.metrics, "NullMetrics")
        assert not hasattr(repro.engine.metrics, "NULL_METRICS")
