"""Coordinator crash recovery: the decision log and the crash sweep.

The heart of this file is the parametrized sweep crashing the
coordinator at **every** injectable transition × several transaction
positions, asserting that recovery always reaches a consistent global
outcome: no shard disagrees with another, committed stays committed,
undecided is presumed aborted, and no prepare lock survives.
"""

from __future__ import annotations

import pytest

from repro.dist import (
    DistributedEngine,
    TwoPhaseCommitCoordinator,
    run_distributed_batch,
)
from repro.dist.network import _TIMER, Message
from repro.dist.recovery import (
    ABORT,
    AFTER_DECISION,
    AFTER_VOTES,
    BEFORE_PREPARE,
    COMMIT,
    CRASH_POINTS,
    CrashPlan,
    CrashSpec,
    DecisionLog,
    MID_BROADCAST,
    crash_plan_from,
)
from repro.engine.reasons import (
    ABORT_TPC_COORDINATOR_CRASH,
    TPC_ABORT_CODES,
)
from repro.engine.workloads import (
    banking_transfer,
    cross_shard_initial_data,
    cross_shard_transfer_workload,
    dist_shard_of,
)
from repro.harness.runner import _run_dist_scenario
from repro.harness.scenarios import build_dist_scenario
from repro.obs.trace import CRASH, RECOVER, TraceRecorder


class TestCrashSpecValidation:
    def test_unknown_transition_rejected(self):
        with pytest.raises(ValueError, match="transition"):
            CrashSpec("mid-validation")

    def test_negative_txn_index_rejected(self):
        with pytest.raises(ValueError, match="txn_index"):
            CrashSpec(BEFORE_PREPARE, txn_index=-1)

    def test_negative_restart_delay_rejected(self):
        with pytest.raises(ValueError, match="restart_delay"):
            CrashSpec(BEFORE_PREPARE, restart_delay=-0.5)

    def test_plan_fires_each_spec_once(self):
        plan = CrashPlan((CrashSpec(AFTER_VOTES, txn_index=2),))
        assert plan.should_crash(AFTER_VOTES, 1) is None
        spec = plan.should_crash(AFTER_VOTES, 2)
        assert spec is not None and spec.transition == AFTER_VOTES
        assert plan.should_crash(AFTER_VOTES, 2) is None
        assert plan.fired == [spec]

    def test_crash_plan_from_empty_is_none(self):
        assert crash_plan_from(()) is None
        assert crash_plan_from([CrashSpec(MID_BROADCAST)]) is not None


class TestDecisionLog:
    def test_presumed_abort_fold(self):
        log = DecisionLog()
        log.log_begin(1, ("shard0", "shard1"), index=0)
        log.log_begin(2, ("shard0", "shard2"), index=1)
        log.log_commit(1)
        log.log_end(1)
        state = log.replay()
        assert state[1] == (("shard0", "shard1"), COMMIT, True, 0)
        assert state[2] == (("shard0", "shard2"), None, False, 1)
        assert log.unfinished() == {2: (("shard0", "shard2"), None, 1)}
        assert len(log) == 4
        # the decision index agrees with the fold, record for record
        assert log.decision(1) == COMMIT
        assert log.decision(2) is None and log.decision(3) is None

    def test_records_render(self):
        log = DecisionLog()
        log.log_begin(7, ("shard0",))
        log.log_commit(7)
        log.log_end(7)
        rendered = [str(record) for record in log.records]
        assert rendered == ["begin T7 shards=['shard0']", "decision T7 commit", "end T7"]


class TestStatusInquiryReadsTheIndex:
    """A status inquiry about a forgotten transaction is one index lookup.

    Replaying the whole log per inquiry made each answer O(log); the
    answer must come from :meth:`DecisionLog.decision` alone.
    """

    def test_forgotten_commit_and_unlogged_txn_answer_without_replay(
        self, monkeypatch
    ):
        engine = DistributedEngine(
            cross_shard_initial_data(2), num_shards=2, shard_of=dist_shard_of, seed=1
        )
        report = engine.run([banking_transfer("s0:acct0", "s1:acct0", 10)])
        coordinator = engine.coordinator
        # committed, fully acknowledged and forgotten by the volatile state
        assert report.commit_count == 1 and coordinator.in_flight == 0
        committed = report.committed[0][0]
        unlogged = committed + 1

        def replay(self):
            raise AssertionError("a status inquiry replayed the decision log")

        monkeypatch.setattr(DecisionLog, "replay", replay)
        sent = []
        monkeypatch.setattr(
            coordinator.network,
            "send",
            lambda src, dst, kind, payload: sent.append((dst, kind, payload)),
        )
        for txn_id, replica in ((committed, "shard1"), (unlogged, "shard0")):
            payload = {"txn": txn_id, "shard": replica, "replica": replica}
            coordinator.on_message(
                0.0, Message(replica, coordinator.name, "status-req", payload, 0)
            )
        assert sent == [
            ("shard1", "decision", {"txn": committed, "outcome": COMMIT}),
            ("shard0", "decision", {"txn": unlogged, "outcome": ABORT}),
        ]


def run_with_crash(crash_specs, num_transactions=5, seed=3, tracer=None):
    initial, specs = cross_shard_transfer_workload(
        num_shards=3,
        accounts_per_shard=3,
        num_transactions=num_transactions,
        cross_fraction=1.0,
        seed=seed,
    )
    report = run_distributed_batch(
        initial,
        specs,
        num_shards=3,
        shard_of=dist_shard_of,
        crash_specs=crash_specs,
        seed=seed,
        tracer=tracer,
    )
    return initial, report


class TestCrashSweep:
    """Satellite: crash at every transition, demand global consistency."""

    @pytest.mark.parametrize("transition", CRASH_POINTS)
    @pytest.mark.parametrize("txn_index", [0, 1, 3])
    @pytest.mark.parametrize("restart_delay", [0.5, 20.0])
    def test_recovery_reaches_a_consistent_global_outcome(
        self, transition, txn_index, restart_delay
    ):
        initial, report = run_with_crash(
            [CrashSpec(transition, txn_index=txn_index, restart_delay=restart_delay)]
        )
        # the crash actually fired
        assert report.metrics.count("dist.coordinator_crashes") == 1

        # conservation: crashes shed throughput, never money
        assert sum(report.final_snapshot.values()) == sum(initial.values())

        # global agreement: for every decided transaction, no two shards
        # disagree, and applied-ness matches the logged decision
        log_state = report.coordinator.log.replay()
        for txn_id, (shards, decision, _ended, _index) in log_state.items():
            outcomes = {
                name: participant.state.outcomes.get(txn_id)
                for name, participant in report.participants.items()
                if txn_id in participant.state.outcomes
            }
            if decision == COMMIT:
                assert set(outcomes.values()) <= {COMMIT}, (txn_id, outcomes)
                for name in shards:
                    assert txn_id in report.participants[name].state.applied_writes
            else:
                # presumed abort: applied nowhere, no shard saw commit
                assert COMMIT not in outcomes.values(), (txn_id, outcomes)
                for participant in report.participants.values():
                    assert txn_id not in participant.state.applied_writes

        # no orphan locks or in-doubt participants survive recovery
        for name, participant in report.participants.items():
            assert not participant.state.locks, (name, participant.state.locks)
            assert not participant.state.in_doubt, name

        # every abort carries a taxonomy code
        for record in report.abort_records:
            assert record.code in TPC_ABORT_CODES, record

    @pytest.mark.parametrize("transition", CRASH_POINTS)
    def test_crash_runs_replay_byte_identically(self, transition):
        _, a = run_with_crash([CrashSpec(transition, txn_index=1)])
        _, b = run_with_crash([CrashSpec(transition, txn_index=1)])
        assert a.digest() == b.digest()

    def test_double_crash_still_converges(self):
        # the first crash wipes every in-flight submission (indexes
        # 0..5), so the second spec targets a *retry* admission (the
        # client resubmits under fresh indexes 6..11)
        initial, report = run_with_crash(
            [
                CrashSpec(AFTER_VOTES, txn_index=0, restart_delay=2.0),
                CrashSpec(MID_BROADCAST, txn_index=7, restart_delay=4.0),
            ],
            num_transactions=6,
        )
        assert report.metrics.count("dist.coordinator_crashes") == 2
        assert sum(report.final_snapshot.values()) == sum(initial.values())
        for participant in report.participants.values():
            assert not participant.state.locks and not participant.state.in_doubt


class TestRecoverySemantics:
    def test_undecided_transaction_aborts_with_crash_code(self):
        # crash before any prepare: the in-flight transaction must be
        # presumed aborted and reported with the coordinator-crash code
        specs = [banking_transfer("s0:acct0", "s1:acct0", 10)]
        report = run_distributed_batch(
            cross_shard_initial_data(2),
            specs,
            num_shards=2,
            shard_of=dist_shard_of,
            crash_specs=[CrashSpec(BEFORE_PREPARE, txn_index=0)],
        )
        crash_aborts = [
            record
            for record in report.abort_records
            if record.code == ABORT_TPC_COORDINATOR_CRASH
        ]
        assert crash_aborts, report.attempts

    def test_client_retry_recovers_the_crashed_transaction(self):
        # default client policy retries the crash-aborted attempt and
        # the rerun (post-recovery) commits
        specs = [banking_transfer("s0:acct0", "s1:acct0", 10)]
        report = run_distributed_batch(
            cross_shard_initial_data(2),
            specs,
            num_shards=2,
            shard_of=dist_shard_of,
            crash_specs=[CrashSpec(AFTER_VOTES, txn_index=0)],
        )
        assert report.outcome_of(0) == COMMIT
        assert report.final_snapshot["s0:acct0"] == 90
        history = report.attempts[0]
        assert history[0].outcome == ABORT
        assert history[0].code == ABORT_TPC_COORDINATOR_CRASH
        assert history[-1].outcome == COMMIT

    def test_logged_commit_survives_the_crash(self):
        # after-decision crash: the decision hit the log, so recovery
        # must re-broadcast COMMIT — the client sees a commit, and the
        # money moves exactly once despite the crash and re-broadcast
        specs = [banking_transfer("s0:acct0", "s1:acct0", 10)]
        report = run_distributed_batch(
            cross_shard_initial_data(2),
            specs,
            num_shards=2,
            shard_of=dist_shard_of,
            crash_specs=[CrashSpec(AFTER_DECISION, txn_index=0)],
        )
        assert report.outcome_of(0) == COMMIT
        assert report.final_snapshot["s0:acct0"] == 90
        assert report.final_snapshot["s1:acct0"] == 110
        # exactly one attempt: the commit was already durable
        assert len(report.attempts[0]) == 1

    def test_mid_broadcast_crash_completes_the_broadcast(self):
        # the decision reached a strict subset of shards; recovery must
        # finish the job so both shards apply
        specs = [banking_transfer("s0:acct0", "s1:acct0", 10)]
        report = run_distributed_batch(
            cross_shard_initial_data(2),
            specs,
            num_shards=2,
            shard_of=dist_shard_of,
            crash_specs=[CrashSpec(MID_BROADCAST, txn_index=0)],
        )
        assert report.outcome_of(0) == COMMIT
        [(txn_id, _writes)] = report.committed
        for participant in report.participants.values():
            assert participant.state.outcomes[txn_id] == COMMIT
        assert report.final_snapshot["s1:acct0"] == 110

    def test_crash_metrics_and_recovery_counters(self):
        from repro.engine.metrics import Metrics

        metrics = Metrics()
        specs = [banking_transfer("s0:acct0", "s1:acct0", 10)]
        run_distributed_batch(
            cross_shard_initial_data(2),
            specs,
            num_shards=2,
            shard_of=dist_shard_of,
            crash_specs=[CrashSpec(AFTER_VOTES, txn_index=0)],
            metrics=metrics,
        )
        snapshot = metrics.snapshot()
        assert snapshot["dist.coordinator_crashes"] == 1
        assert snapshot["dist.recoveries"] == 1


class TestSubmissionWhileDown:
    """A crashed coordinator admits nothing (``submit()`` is a local call)."""

    def test_refused_with_the_crash_code_then_retried_to_commit(self):
        specs = [banking_transfer("s0:acct0", "s1:acct0", 10)]
        engine = DistributedEngine(
            cross_shard_initial_data(2), num_shards=2, shard_of=dist_shard_of, seed=1
        )
        coordinator = engine.coordinator
        completions = []
        coordinator.on_complete = lambda *args: completions.append(args)
        # down for longer than read_timeout (6.0): a transaction started
        # by the dead process would lose its only timer before recovery
        coordinator.crash(restart_delay=7.0)
        index = coordinator.submit(specs[0])
        assert coordinator.in_flight == 0 and not coordinator._backlog
        assert completions == [
            (
                None,
                index,
                ABORT,
                ABORT_TPC_COORDINATOR_CRASH,
                "submission refused: coordinator is down",
            )
        ]
        # the client submits inside the same window: refused at t=0 and
        # again at its first retry (t=6), committed by the retry that
        # lands after recovery
        report = engine.run(specs)
        *refused, final = report.attempts[0]
        assert [(r.txn_id, r.code) for r in refused] == [
            (None, ABORT_TPC_COORDINATOR_CRASH)
        ] * 2
        assert final.outcome == COMMIT and report.final_snapshot["s1:acct0"] == 110
        assert report.metrics.count("dist.submissions_refused") == 3
        assert report.metrics.count("dist.net.dropped_at_node") == 0
        assert coordinator.in_flight == 0

    def test_runs_without_a_refusal_never_create_the_counter(self):
        _, report = run_with_crash([CrashSpec(AFTER_VOTES, txn_index=1)])
        assert report.metrics.count("dist.coordinator_crashes") == 1
        assert "dist.submissions_refused" not in report.metrics.snapshot()

    @pytest.mark.parametrize("replicas", (1, 3))
    def test_every_transaction_keeps_a_live_timer(self, replicas, monkeypatch):
        # the invariant the bug broke: whatever recover() leaves in
        # ``_txns`` must still be able to time out — its timer armed,
        # un-cancelled and of the current incarnation
        checked = []
        original = TwoPhaseCommitCoordinator.recover

        def recover(coordinator):
            original(coordinator)
            network = coordinator.network
            current = network.incarnation_of(coordinator.name)
            live = {
                item[0]
                for _time, _seq, tag, item in network._heap
                if tag == _TIMER
                and item[1] == coordinator.name
                and item[4] == current
                and item[0] not in network._cancelled_timers
            }
            txns = coordinator._txns
            checked.append(sorted(t for t in txns if txns[t].timer_id not in live))

        monkeypatch.setattr(TwoPhaseCommitCoordinator, "recover", recover)
        for seed in range(20):
            _run_dist_scenario(
                build_dist_scenario(seed, plan="crash", quick=False, replicas=replicas)
            )
        assert len(checked) >= 20
        assert [orphans for orphans in checked if orphans] == []


class TestCrashTrace:
    def test_a_coordinator_crash_is_traced_as_crash_then_recover(self):
        tracer = TraceRecorder()
        _, report = run_with_crash([CrashSpec(AFTER_VOTES, txn_index=1)], tracer=tracer)
        events = [e for e in tracer.events if e.etype in (CRASH, RECOVER)]
        assert [e.etype for e in events] == [CRASH, RECOVER]
        crash, recover = events
        # the crash names the transition it fired at and what it orphaned
        assert crash.detail == AFTER_VOTES
        assert crash.meta["in_flight"] >= 1
        assert recover.ts > crash.ts
        assert report.metrics.count("dist.coordinator_crashes") == 1
        assert report.metrics.count("dist.recoveries") == 1
