"""Scheduler tests: RunQueue unit behaviour, random-mode determinism,
stuck detection, kernel attach/detach and the removed settings.  The
scheduler's digests are the ``random`` and frozen ``round-scan-*`` groups
of ``tests/pins.py``.
"""

from dataclasses import fields

import pytest

from pins import run_recorded, zipfian_batch
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
        import repro.engine
        import repro.engine.metrics

        assert not hasattr(repro.engine.metrics, "NullMetrics")
        assert not hasattr(repro.engine, "NULL_METRICS")
