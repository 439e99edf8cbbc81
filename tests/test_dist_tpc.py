"""Tests for the 2PC layer: commit/abort paths, timeouts, degradation.

The crash-recovery sweep lives in ``tests/test_dist_recovery.py``; this
file covers the fault-free protocol, validation NO votes, timeout
aborts with retry/backoff, duplicate/reorder tolerance under network
faults, graceful degradation (shedding + reduced admission), what
chaos costs in virtual time, metrics counters and digest determinism —
and a differential test of the one
participant state machine against the oracle's independent interpreter.
"""

from __future__ import annotations

import collections
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.engine import DistributedEngine, run_distributed_batch
from repro.dist.network import LatencyModel
from repro.dist.recovery import ABORT, AFTER_VOTES, COMMIT, CrashSpec
from repro.dist.tpc import (
    BACKOFF,
    DEGRADED_MAX_IN_FLIGHT,
    ParticipantState,
    TpcConfig,
    _ShardHealth,
)
from repro.engine.faults import NetworkFaultSpec, PartitionWindow
from repro.engine.metrics import Metrics
from repro.engine.operations import (
    TransactionSpec,
    increment_op,
    read_op,
    write_op,
)
from repro.engine.reasons import (
    ABORT_TPC_PARTICIPANT_NO,
    ABORT_TPC_SHED,
    ABORT_TPC_TIMEOUT,
    TPC_ABORT_CODES,
)
from repro.engine.storage import DataStore
from repro.engine.workloads import (
    banking_transfer,
    cross_shard_initial_data,
    cross_shard_transfer_workload,
    dist_shard_of,
)
from repro.harness.oracles import _replay_shard_log
from repro.obs.trace import DECIDE, TIMEOUT, TraceRecorder


def run(specs, initial=None, num_shards=2, **kwargs):
    initial = initial if initial is not None else cross_shard_initial_data(num_shards)
    return run_distributed_batch(
        initial, specs, num_shards=num_shards, shard_of=dist_shard_of, **kwargs
    )


class TestTpcConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_retries", -1),
            ("max_in_flight", 0),
            ("shed_threshold", 0.0),
            ("shed_threshold", 1.5),
            ("probe_every", 0),
            ("client_max_attempts", 0),
            ("health_window", 0),
            # below the default min_health_samples (4): never enough samples
            ("health_window", 2),
            ("min_health_samples", 0),
            ("min_health_samples", 9),
        ],
    )
    def test_invalid_knobs_rejected(self, field, value):
        with pytest.raises(ValueError):
            TpcConfig(**{field: value})


class TestCommitPath:
    def test_cross_shard_transfer_commits_and_conserves(self):
        specs = [banking_transfer("s0:acct0", "s1:acct1", 30)]
        report = run(specs)
        assert report.commit_count == 1
        assert report.final_snapshot["s0:acct0"] == 70
        assert report.final_snapshot["s1:acct1"] == 130
        assert sum(report.final_snapshot.values()) == 800

    def test_write_only_transaction_skips_the_read_phase(self):
        specs = [
            TransactionSpec(
                [write_op("s0:acct0", 5), write_op("s1:acct0", 7)], name="blind"
            )
        ]
        report = run(specs)
        assert report.commit_count == 1
        assert report.final_snapshot["s0:acct0"] == 5
        assert report.final_snapshot["s1:acct0"] == 7

    def test_single_shard_transaction_still_commits(self):
        specs = [banking_transfer("s0:acct0", "s0:acct1", 10)]
        report = run(specs)
        assert report.commit_count == 1
        assert report.final_snapshot["s0:acct0"] == 90

    def test_read_your_writes_across_shards(self):
        specs = [
            TransactionSpec(
                [
                    write_op("s0:acct0", 41),
                    increment_op("s0:acct0"),
                    read_op("s1:acct0"),
                ],
                name="ryw",
            )
        ]
        report = run(specs)
        assert report.final_snapshot["s0:acct0"] == 42

    def test_committed_write_sets_in_decision_order(self):
        specs = [
            banking_transfer("s0:acct0", "s1:acct0", 10),
            banking_transfer("s1:acct1", "s0:acct1", 20),
        ]
        report = run(specs)
        assert len(report.committed) == 2
        replayed = dict(cross_shard_initial_data(2))
        for _txn, writes in report.committed:
            replayed.update(writes)
        assert replayed == report.final_snapshot

    def test_shard_of_runs_once_per_key_per_run(self):
        # the engine memoises key -> shard for the run, so the caller's
        # function runs on a key's first lookup only, however many
        # admissions, prepares and retries touch the key afterwards
        calls = collections.Counter()

        def counting_shard_of(key):
            calls[key] += 1
            return dist_shard_of(key)

        initial, specs = cross_shard_transfer_workload(
            num_shards=3,
            accounts_per_shard=4,
            num_transactions=40,
            cross_fraction=0.8,
            seed=2,
        )
        engine = DistributedEngine(
            initial, num_shards=3, shard_of=counting_shard_of, seed=2
        )
        calls.clear()  # the store's own placement of the initial data
        report = engine.run(specs)
        assert report.commit_count > 20
        touched = {op.key for spec in specs for op in spec.operations}
        assert calls == collections.Counter(touched)

    def test_decision_log_is_clean_at_quiescence(self):
        report = run([banking_transfer("s0:acct0", "s1:acct0", 10)])
        worklist = report.coordinator.log.unfinished()
        assert worklist == {}


class TestValidationAborts:
    def test_conflicting_transfers_serialize_or_abort_with_code(self):
        # ten rivals all draining the same source account
        specs = [banking_transfer("s0:acct0", "s1:acct1", 10) for _ in range(10)]
        config = TpcConfig(client_max_attempts=1, max_in_flight=10)
        report = run(specs, config=config)
        # money conserved no matter how many made it
        assert sum(report.final_snapshot.values()) == 800
        aborted = report.abort_records
        assert aborted, "contending prepares must produce NO votes"
        assert {record.code for record in aborted} == {ABORT_TPC_PARTICIPANT_NO}

    def test_client_retry_eventually_commits(self):
        specs = [banking_transfer("s0:acct0", "s1:acct1", 5) for _ in range(4)]
        report = run(specs, config=TpcConfig(client_max_attempts=5))
        assert report.commit_count == 4
        assert report.final_snapshot["s0:acct0"] == 80

    def test_every_abort_carries_a_taxonomy_code(self):
        initial, specs = cross_shard_transfer_workload(
            num_shards=3, num_transactions=25, seed=5
        )
        report = run(specs, initial=initial, num_shards=3, seed=5)
        for record in report.abort_records:
            assert record.code in TPC_ABORT_CODES, record


class TestTimeoutsAndRetries:
    def test_partitioned_shard_times_out_with_code(self):
        # shard1 unreachable the whole run; the transfer must abort
        # with the timeout code after bounded retries, not hang
        faults = NetworkFaultSpec(
            partitions=(PartitionWindow(0.0, 10_000.0, frozenset({"shard1"})),)
        )
        metrics = Metrics()
        config = TpcConfig(client_max_attempts=1)
        report = run(
            [banking_transfer("s0:acct0", "s1:acct1", 10)],
            network_faults=faults,
            config=config,
            metrics=metrics,
        )
        assert report.commit_count == 0
        [record] = report.abort_records
        assert record.code == ABORT_TPC_TIMEOUT
        assert "shard1" in record.reason
        snapshot = metrics.snapshot()
        # read-phase retries plus the abort-broadcast nudges at the
        # unreachable shard — at least the bounded read retries fired
        assert snapshot["dist.retries"] >= config.max_retries
        assert snapshot["dist.timeouts"] > config.max_retries
        # nothing was applied anywhere
        assert sum(report.final_snapshot.values()) == 800

    def test_retries_ride_out_a_transient_partition(self):
        faults = NetworkFaultSpec(
            partitions=(PartitionWindow(0.0, 4.0, frozenset({"shard1"})),)
        )
        report = run(
            [banking_transfer("s0:acct0", "s1:acct1", 10)], network_faults=faults
        )
        assert report.commit_count == 1

    def test_heavy_loss_still_converges_and_conserves(self):
        initial, specs = cross_shard_transfer_workload(
            num_shards=3, num_transactions=15, seed=2
        )
        faults = NetworkFaultSpec(
            loss_probability=0.25, duplicate_probability=0.1, seed=13
        )
        report = run(
            specs, initial=initial, num_shards=3, seed=2, network_faults=faults
        )
        assert sum(report.final_snapshot.values()) == sum(initial.values())
        for name, participant in report.participants.items():
            assert not participant.state.locks, name
            assert not participant.state.in_doubt, name

    def test_backoff_spaces_retries_exponentially(self):
        faults = NetworkFaultSpec(
            partitions=(PartitionWindow(0.0, 10_000.0, frozenset({"shard1"})),)
        )
        tracer = TraceRecorder()
        config = TpcConfig(client_max_attempts=1, max_retries=3)
        run(
            [banking_transfer("s0:acct0", "s1:acct1", 10)],
            network_faults=faults,
            config=config,
            tracer=tracer,
        )
        timeouts = [
            e.ts for e in tracer.events if e.etype == TIMEOUT and e.detail == "reading"
        ]
        gaps = [b - a for a, b in zip(timeouts, timeouts[1:])]
        assert len(gaps) >= 2
        for earlier, later in zip(gaps, gaps[1:]):
            assert later == pytest.approx(earlier * BACKOFF)


class TestGracefulDegradation:
    def _drive_degraded(self, metrics):
        """Run against a permanently dead shard1 until it is shed."""
        config = TpcConfig(
            client_max_attempts=1,
            max_retries=0,
            min_health_samples=2,
            health_window=4,
            shed_threshold=0.4,
            probe_every=100,
            max_in_flight=2,
        )
        faults = NetworkFaultSpec(
            partitions=(PartitionWindow(0.0, 10_000.0, frozenset({"shard1"})),)
        )
        engine = DistributedEngine(
            cross_shard_initial_data(3),
            num_shards=3,
            shard_of=dist_shard_of,
            config=config,
            network_faults=faults,
            metrics=metrics,
        )
        specs = [banking_transfer("s0:acct0", "s1:acct1", 1) for _ in range(8)]
        return engine, engine.run(specs)

    def test_dead_shard_trips_shedding(self):
        metrics = Metrics()
        engine, report = self._drive_degraded(metrics)
        assert engine.coordinator.is_degraded("shard1")
        assert not engine.coordinator.is_degraded("shard0")
        snapshot = metrics.snapshot()
        assert snapshot.get("dist.shed", 0) > 0
        shed = [r for r in report.abort_records if r.code == ABORT_TPC_SHED]
        assert shed
        assert "degraded" in shed[0].reason

    def test_degraded_mode_lowers_admission_limit(self):
        metrics = Metrics()
        engine, _report = self._drive_degraded(metrics)
        assert (
            engine.coordinator.current_max_in_flight
            == DEGRADED_MAX_IN_FLIGHT
        )
        assert metrics.snapshot().get("dist.backlogged", 0) > 0

    def test_running_failure_count_survives_window_eviction(self):
        health = _ShardHealth(4)
        rng = random.Random(0)
        for _ in range(200):
            health.record(rng.random() < 0.6)
            window = list(health.outcomes)
            assert health.failure_rate() == window.count(False) / len(window)

    def test_degraded_set_agrees_with_a_recount_of_the_windows(self):
        engine, _report = self._drive_degraded(Metrics())
        coordinator, config = engine.coordinator, engine.config
        for shard, health in coordinator._health.items():
            window = list(health.outcomes)
            over = (
                len(window) >= config.min_health_samples
                and window.count(False) / len(window) > config.shed_threshold
            )
            assert coordinator.is_degraded(shard) == over, shard

    def test_healthy_run_never_sheds(self):
        metrics = Metrics()
        initial, specs = cross_shard_transfer_workload(num_transactions=10, seed=1)
        run(specs, initial=initial, num_shards=3, metrics=metrics)
        assert metrics.snapshot().get("dist.shed", 0) == 0

    def test_probe_admissions_pierce_the_shed(self):
        metrics = Metrics()
        config = TpcConfig(
            client_max_attempts=1,
            max_retries=0,
            min_health_samples=2,
            health_window=4,
            shed_threshold=0.4,
            probe_every=2,
        )
        faults = NetworkFaultSpec(
            partitions=(PartitionWindow(0.0, 10_000.0, frozenset({"shard1"})),)
        )
        engine = DistributedEngine(
            cross_shard_initial_data(2),
            num_shards=2,
            shard_of=dist_shard_of,
            config=config,
            network_faults=faults,
            metrics=metrics,
        )
        engine.run([banking_transfer("s0:acct0", "s1:acct1", 1) for _ in range(12)])
        snapshot = metrics.snapshot()
        assert snapshot.get("dist.shed", 0) > 0
        assert snapshot.get("dist.probes", 0) > 0


class TestChaosCostsVirtualTime:
    """Faults shed throughput, never money.

    One batch of 36 cross-shard transfers over 3 shards, three ways:
    faultless, at 15% loss with 5% duplication, and with the coordinator
    crashed after the votes of its third transaction.  Every number is
    virtual time, so the comparison repeats exactly.
    """

    def test_chaos_costs_virtual_time_not_money(self):
        initial, specs = cross_shard_transfer_workload(
            num_shards=3,
            accounts_per_shard=6,
            num_transactions=36,
            cross_fraction=0.9,
            seed=13,
        )

        def cell(**faults):
            metrics = Metrics()
            report = run(
                specs, initial=initial, num_shards=3, seed=13, metrics=metrics,
                **faults,
            )
            assert sum(report.final_snapshot.values()) == sum(initial.values())
            return report, metrics.snapshot()

        clean, _ = cell()
        lossy, _ = cell(
            network_faults=NetworkFaultSpec(
                loss_probability=0.15, duplicate_probability=0.05, seed=7
            )
        )
        crashed, crashed_metrics = cell(
            crash_specs=(CrashSpec(AFTER_VOTES, txn_index=2, restart_delay=4.0),)
        )
        # pure contention can still exhaust a client's attempt budget
        assert clean.commit_count >= int(0.85 * 36)
        # retries push >= 75% of the programs through the chaos
        assert lossy.commit_count >= int(0.75 * 36)
        assert crashed.commit_count >= int(0.75 * 36)
        assert crashed_metrics["dist.coordinator_crashes"] == 1
        # retransmissions and backoff stretch the run and lower the rate
        assert lossy.virtual_end > clean.virtual_end
        assert (
            lossy.commit_count / lossy.virtual_end
            < clean.commit_count / clean.virtual_end
        )


class TestDeterminism:
    def test_digest_is_stable_across_reruns(self):
        initial, specs = cross_shard_transfer_workload(
            num_shards=3, num_transactions=12, seed=4
        )
        faults = NetworkFaultSpec(
            loss_probability=0.15, duplicate_probability=0.05, seed=21
        )
        kwargs = dict(
            initial=initial, num_shards=3, seed=4, network_faults=faults
        )
        digests = {run(specs, **kwargs).digest() for _ in range(3)}
        assert len(digests) == 1

    def test_digest_differs_across_seeds(self):
        initial, specs = cross_shard_transfer_workload(
            num_shards=3, num_transactions=12, seed=4
        )
        faults = NetworkFaultSpec(loss_probability=0.3, seed=21)
        a = run(specs, initial=initial, num_shards=3, seed=4, network_faults=faults)
        b = run(specs, initial=initial, num_shards=3, seed=5, network_faults=faults)
        # different latency seeds reorder the protocol — the reports
        # may or may not agree, but virtual end times differ
        assert a.virtual_end != b.virtual_end or a.digest() != b.digest()

    def test_trace_records_decisions_with_codes(self):
        tracer = TraceRecorder()
        specs = [banking_transfer("s0:acct0", "s1:acct1", 10) for _ in range(6)]
        report = run(
            specs, config=TpcConfig(client_max_attempts=1, max_in_flight=6),
            tracer=tracer,
        )
        decides = [e for e in tracer.events if e.etype == DECIDE]
        assert len(decides) == 6
        aborted = [e for e in decides if e.code is not None]
        assert len(aborted) == len(report.abort_records)
        for event in aborted:
            assert event.code in TPC_ABORT_CODES

    def test_metrics_counters_cover_the_protocol(self):
        metrics = Metrics()
        initial, specs = cross_shard_transfer_workload(
            num_shards=3, num_transactions=15, seed=8
        )
        faults = NetworkFaultSpec(loss_probability=0.2, seed=3)
        run(
            specs,
            initial=initial,
            num_shards=3,
            seed=8,
            network_faults=faults,
            metrics=metrics,
        )
        snapshot = metrics.snapshot()
        for counter in (
            "dist.net.sent",
            "dist.net.delivered",
            "dist.net.dropped",
            "dist.commits",
            "dist.participant.prepares",
            "dist.participant.applies",
        ):
            assert snapshot.get(counter, 0) > 0, counter


# ----------------------------------------------------------------------
# the one participant state machine vs the oracle's interpreter
# ----------------------------------------------------------------------

_KEYS = ("a", "b", "c", "d")
_TXNS = st.integers(min_value=1, max_value=5)
#: mostly-current read versions (every key starts at v0), some stale
_VERSIONS = st.sampled_from((0, 0, 0, 1, 1, 2))
_PREPARES = st.tuples(
    st.just("prepare"),
    _TXNS,
    st.dictionaries(st.sampled_from(_KEYS), _VERSIONS, max_size=3),
    st.dictionaries(st.sampled_from(_KEYS), st.integers(0, 99), max_size=3),
)
_DECIDES = st.tuples(st.just("decide"), _TXNS, st.sampled_from((COMMIT, ABORT)))
_COMMANDS = st.lists(
    st.one_of(_PREPARES, _PREPARES, _DECIDES, st.just(("noop",))), max_size=30
)


def _apply_chosen(state: ParticipantState, command) -> None:
    """Apply one chosen command the way both drivers do."""
    if command[0] == "prepare":
        _, txn_id, reads, writes = command
        if state.recorded_vote(txn_id) is None:
            state.prepare(txn_id, reads, writes)
    elif command[0] == "decide":
        state.decide(command[1], command[2])


class TestParticipantStateAgainstTheOracle:
    """``_replay_shard_log`` shares no code with what it judges — tested.

    Overlapping footprints, stale versions, duplicate prepares,
    decide-before-prepare, duplicate and conflicting decides: whatever
    the sequence, the production state machine and the harness's
    interpreter must end in the same key/value state.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        commands=_COMMANDS,
        closing=st.lists(st.sampled_from((COMMIT, ABORT)), min_size=5, max_size=5),
    )
    def test_same_final_state_and_no_orphan_locks(self, commands, closing):
        initial = {key: 10 for key in _KEYS}
        state = ParticipantState(DataStore(initial), Metrics())
        for command in commands:
            _apply_chosen(state, command)
            # a transaction is prepared or decided, never both
            assert not state.prepared.keys() & state.outcomes.keys()
        log = [(1, command) for command in commands]
        assert state.store.snapshot() == _replay_shard_log(initial, log)
        # no lock without an in-doubt owner
        assert set(state.locks.values()) <= state.in_doubt
        # decide every transaction the sequence could have left in doubt
        suffix = [("decide", txn_id, how) for txn_id, how in enumerate(closing, 1)]
        for command in suffix:
            _apply_chosen(state, command)
            assert not state.prepared.keys() & state.outcomes.keys()
        log += [(2, command) for command in suffix]
        assert state.store.snapshot() == _replay_shard_log(initial, log)
        assert not state.locks and not state.in_doubt
        assert all(state.outcomes[txn_id] == COMMIT for txn_id in state.applied_writes)

    def test_the_sequences_reach_every_verdict(self):
        # a differential test over runs in which nothing conflicts would
        # compare nothing: show one hand-written sequence hits a YES, a
        # lock-conflict NO, a stale-read NO, a duplicate and a late decide
        state = ParticipantState(DataStore({"a": 1, "b": 2}), Metrics())
        assert state.prepare(1, {"a": 0}, {"a": 5}) is None
        assert "prepare-locked by T1" in state.prepare(2, {"a": 0}, {"b": 7})
        assert state.recorded_vote(1) is True and state.recorded_vote(2) is False
        state.decide(1, COMMIT)
        state.decide(1, ABORT)  # a conflicting duplicate changes nothing
        assert state.outcomes[1] == COMMIT and state.applied_writes == {1: {"a": 5}}
        assert "stale read of 'a'" in state.prepare(3, {"a": 0}, {})
        state.decide(4, ABORT)  # decided before it was ever prepared
        assert state.recorded_vote(4) is False and state.recorded_vote(5) is None
        assert state.read(["a", "b"]) == ({"a": 5, "b": 2}, {"a": 1, "b": 0})
        assert not state.locks and not state.in_doubt
