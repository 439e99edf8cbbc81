"""Scheduler tests: the run queue's order, random-mode determinism,
stuck detection, sequential runs over one protocol and the removed
settings.  The scheduler's digests are the ``random`` and frozen
``round-scan-*`` groups of ``tests/pins.py``.
"""

from dataclasses import fields

import pytest

from pins import BATCHES, run_recorded, zipfian_batch
from repro.dist.paxos import ReplicationConfig
from repro.dist.tpc import TpcConfig
from repro.engine.kernel import Session
from repro.engine.operations import TransactionSpec, read_op, write_op
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
from repro.obs.trace import COMMIT, RESTART, WAKE, WRITE, TraceRecorder


class TestRandomModeDigests:
    def test_random_run_queue_is_deterministic(self):
        initial, specs = zipfian_batch(seed=13)
        factory = PROTOCOL_ENTRIES["strict-2pl"].factory
        first = run_recorded(factory, initial, specs, "random")
        second = run_recorded(factory, initial, specs, "random")
        assert first[1] == second[1]
        assert first[0].per_transaction == second[0].per_transaction


def _traced_run(protocol, specs, interleaving="round-robin"):
    """Run ``specs`` with a trace recorder: the result and the events,
    each stamped with the scheduler round it happened in (``ts``)."""
    tracer = TraceRecorder()
    executor = TransactionExecutor(
        protocol, max_attempts=400, interleaving=interleaving, seed=9, tracer=tracer
    )
    return executor.run(list(specs)), tracer.events


def _steps_by_round(events):
    """The session ids stepped in each round, in step order.  A step's
    events (begin, the operation, an abort and its restart) share its
    session id; a WAKE names the woken session inside another's step."""
    rounds = {}
    last = None
    for event in events:
        if event.etype == WAKE:
            continue
        if (event.ts, event.session_id) != last:
            rounds.setdefault(event.ts, []).append(event.session_id)
            last = (event.ts, event.session_id)
    return rounds


def _round_after_wake(events, session_id):
    """For each wake of ``session_id``: its round and the round of the
    session's next event."""
    pairs = []
    for index, event in enumerate(events):
        if event.etype == WAKE and event.session_id == session_id:
            after = next(e for e in events[index + 1:] if e.session_id == session_id)
            pairs.append((event.ts, after.ts))
    return pairs


class TestRunQueueOrder:
    """The executor's queue order, read off a trace: one round steps its
    sessions in ascending id, a wake joins the round when its id is still
    due, a backoff skips the empty rounds, and random interleaving draws
    only from the round's own sessions."""

    def test_a_round_steps_its_sessions_in_ascending_id(self):
        initial, specs = BATCHES["hotspot-queue"]
        result, events = _traced_run(StrictTwoPhaseLocking(DataStore(initial)), specs)
        assert result.committed == len(specs) and result.blocks > 0
        rounds = _steps_by_round(events)
        assert rounds[1] == list(range(len(specs)))
        for stepped in rounds.values():
            assert stepped == sorted(set(stepped))

    def test_a_wake_above_the_last_stepped_id_runs_this_round(self):
        """Round 1 begins all three.  Round 2: ``t1`` takes x and ``t2``
        parks behind it.  Round 3: ``t0`` parks on x too, then ``t1``
        commits and wakes ``t2``, which is above ``t1`` and takes x in
        round 3.  Round 4: ``t2`` commits and wakes ``t0``, which is
        below ``t2`` and takes x in round 5."""
        specs = [
            TransactionSpec([write_op("a", 0), write_op("x", 0)], name="t0"),
            TransactionSpec([write_op("x", 1)], name="t1"),
            TransactionSpec([write_op("x", 2)], name="t2"),
        ]
        protocol = StrictTwoPhaseLocking(DataStore({"a": 0, "x": 0}))
        result, events = _traced_run(protocol, specs)
        assert result.committed == 3
        assert _round_after_wake(events, 2) == [(3, 3)]
        assert _round_after_wake(events, 0) == [(4, 5)]

    def test_a_cooldown_skips_the_empty_rounds(self):
        """Aborted in round R with cooldown c, a session steps again in
        round R + c + 1: nothing runs in between, and no round is spent
        on the gap."""
        protocol = _ScriptedLocking(DataStore({"y": 0}), y_aborts=3)
        specs = [TransactionSpec([read_op("y")], name="t")]
        result, events = _traced_run(protocol, specs)
        assert result.committed == 1 and result.restarts == 3
        jumps = []
        for index, event in enumerate(events):
            if event.etype == RESTART:
                jumps.append((event.ts, event.meta["cooldown"], events[index + 1].ts))
        assert jumps == [(2, 1, 4), (5, 2, 8), (9, 3, 13)]
        # begin, read y: abort, and (after the last abort) read, commit
        assert sorted({event.ts for event in events}) == [1, 2, 4, 5, 8, 9, 13, 14, 15]

    def test_random_draws_only_from_the_rounds_own_sessions(self):
        initial, specs = BATCHES["hotspot-queue"]
        protocol = StrictTwoPhaseLocking(DataStore(initial))
        result, events = _traced_run(protocol, specs, interleaving="random")
        assert result.committed == len(specs)
        assert result.metrics.count("kernel.wakeups") > 0
        for stepped in _steps_by_round(events).values():
            assert len(stepped) == len(set(stepped))
        for session_id in range(len(specs)):
            for woke_in, stepped_in in _round_after_wake(events, session_id):
                assert stepped_in > woke_in


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
    """Strict 2PL that answers the first ``z_blocks`` reads of ``z`` with
    a block naming no live blocker (its session stops, still holding its
    locks, and retries next round) and aborts the first ``y_aborts``
    reads of ``y``."""

    def __init__(self, store, z_blocks=1, y_aborts=1):
        super().__init__(store)
        self._scripted = {"z": z_blocks, "y": y_aborts}

    def on_read(self, txn_id, key):
        if self._scripted.get(key):
            self._scripted[key] -= 1
            if key == "z":
                return Decision.block(reason="scripted: no live blocker")
            return Decision.abort("scripted abort")
        return super().on_read(txn_id, key)


class TestSerialWakeWhileCooling:
    def test_a_session_woken_during_its_backoff_is_stepped_once(self):
        """Under serial interleaving a restart drives on through its
        cooldown, so a session can park while it sits out its backoff.
        Round 1: ``a`` takes x and stops on z; ``b`` aborts on y,
        restarts (cooldown 1), re-reads y and parks behind ``a``'s lock
        on x.  Round 2: ``a`` commits and wakes ``b``, which is still
        cooling, so the wake does not requeue it.  Round 3: the cooldown
        expires and ``b`` is stepped again — once."""
        specs = [
            TransactionSpec([write_op("x", 1), read_op("z")], name="a"),
            TransactionSpec([read_op("y"), write_op("x", 2)], name="b"),
        ]
        protocol = _ScriptedLocking(DataStore({"x": 0, "y": 0, "z": 0}))
        result, events = _traced_run(protocol, specs, interleaving="serial")
        assert result.committed == 2 and result.restarts == 1
        assert result.per_transaction["b#1"]["attempts"] == 2
        assert result.metrics.count("kernel.wakeups") == 1
        after_round_1 = [
            (event.ts, event.etype)
            for event in events
            if event.session_id == 1 and event.ts > 1
        ]
        assert after_round_1 == [(2, WAKE), (3, WRITE), (3, COMMIT)]
        assert _steps_by_round(events)[3] == [1]
        assert protocol.store.read("x") == 2

    def test_a_backoff_that_ends_while_parked_leaves_the_session_parked(self):
        """As above, but ``a`` stops on z through round 3 (a serial drive
        retries a stopped session once more in the same round), so
        ``b``'s cooldown expires in round 3 while it is still parked.
        The expiry does not step it; ``a`` commits in round 4 and its
        wake brings ``b`` back in the same round."""
        specs = [
            TransactionSpec([write_op("x", 1), read_op("z")], name="a"),
            TransactionSpec([read_op("y"), write_op("x", 2)], name="b"),
        ]
        protocol = _ScriptedLocking(DataStore({"x": 0, "y": 0, "z": 0}), z_blocks=5)
        result, events = _traced_run(protocol, specs, interleaving="serial")
        assert result.committed == 2 and result.restarts == 1
        after_round_1 = [
            (event.ts, event.etype)
            for event in events
            if event.session_id == 1 and event.ts > 1
        ]
        assert after_round_1 == [(4, WAKE), (4, WRITE), (4, COMMIT)]
        assert _steps_by_round(events)[3] == [0]


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
