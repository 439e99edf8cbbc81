"""Replicated shards under chaos: the leader-crash sweep and friends.

The heart of this file mirrors :mod:`tests.test_dist_recovery`: crash
the shard leader at **every** replication-visible 2PC transition ×
several transaction positions, and demand that the replica group
converges to one agreed log, that 2PC outcomes stay atomic across
shards, and that no money is minted.  Around it: duplicate-DECIDE
idempotence (a duplicated decision broadcast must not double-apply),
partition shedding (a minority side answers ``repl-no-quorum`` instead
of hanging), timed leader crashes, what replication and failover cost
in virtual time, and replay determinism.
"""

from __future__ import annotations

import pytest

from repro.dist.engine import DistributedEngine, _Client, run_distributed_batch
from repro.dist.network import Message, SimulatedNetwork
from repro.dist.recovery import ABORT, COMMIT
from repro.dist.replication import (
    REPL_CRASH_POINTS,
    ReplicaCrashPlan,
    ReplicaCrashSpec,
    replica_seed,
)
from repro.engine.faults import NetworkFaultSpec, PartitionWindow
from repro.engine.metrics import Metrics
from repro.engine.reasons import ABORT_REPL_NO_QUORUM, TPC_ABORT_CODES
from repro.engine.workloads import (
    cross_shard_initial_data,
    cross_shard_transfer_workload,
    dist_shard_of,
)
from repro.obs.trace import CRASH, ELECT, RECOVER, TraceRecorder


def run_replicated(
    replica_crashes=(),
    network_faults=None,
    num_transactions=8,
    seed=3,
    metrics=None,
    tracer=None,
):
    initial, specs = cross_shard_transfer_workload(
        num_shards=2,
        accounts_per_shard=4,
        num_transactions=num_transactions,
        cross_fraction=0.9,
        seed=seed,
    )
    report = run_distributed_batch(
        initial,
        specs,
        num_shards=2,
        shard_of=dist_shard_of,
        seed=seed,
        replicas=3,
        replica_crashes=list(replica_crashes),
        network_faults=network_faults,
        metrics=metrics,
        tracer=tracer,
    )
    return initial, report


def assert_group_agreement(report):
    """Every group's replicas hold the same log and the same state."""
    for shard in sorted(report.groups):
        group = report.groups[shard]
        reference = group.replicas[0]
        for replica in group.replicas[1:]:
            assert replica.log == reference.log, (shard, replica.name)
            assert replica.state.store.snapshot() == reference.state.store.snapshot()
            assert replica.state.outcomes == reference.state.outcomes
        assert not group.state.prepared and not group.state.locks


def assert_atomic_outcomes(initial, report):
    """2PC atomicity and conservation, judged from the decision log."""
    assert sum(report.final_snapshot.values()) == sum(initial.values())
    log_state = report.coordinator.log.replay()
    for txn_id, (shards, decision, _ended, _index) in log_state.items():
        for name, group in report.groups.items():
            outcome = group.state.outcomes.get(txn_id)
            if decision == COMMIT:
                assert outcome != ABORT, (txn_id, name)
                if name in shards:
                    assert txn_id in group.state.applied_writes, (txn_id, name)
            else:
                assert outcome != COMMIT, (txn_id, name)
                assert txn_id not in group.state.applied_writes, (txn_id, name)
    for record in report.abort_records:
        assert record.code in TPC_ABORT_CODES, record


class TestReplicaCrashSpecValidation:
    def test_unknown_transition_rejected(self):
        with pytest.raises(ValueError, match="transition"):
            ReplicaCrashSpec(shard="shard0", transition="mid-flight")

    def test_transition_and_at_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            ReplicaCrashSpec(
                shard="shard0", transition=REPL_CRASH_POINTS[0], at=5.0
            )
        with pytest.raises(ValueError):
            ReplicaCrashSpec(shard="shard0")

    @pytest.mark.parametrize(
        "fields",
        [
            {"at": -1.0},
            {"transition": REPL_CRASH_POINTS[0], "txn_index": -1},
            {"at": 5.0, "restart_delay": 0.0},
        ],
        ids=["negative-at", "negative-txn-index", "restart-delay"],
    )
    def test_out_of_range_values_rejected(self, fields):
        with pytest.raises(ValueError):
            ReplicaCrashSpec(shard="shard0", **fields)

    def test_plan_fires_once_per_distinct_txn(self):
        spec = ReplicaCrashSpec(
            shard="shard0", transition=REPL_CRASH_POINTS[0], txn_index=1
        )
        plan = ReplicaCrashPlan([spec])
        assert plan.should_crash("shard0", REPL_CRASH_POINTS[0], 10) is None
        assert plan.should_crash("shard0", REPL_CRASH_POINTS[0], 11) is spec
        assert plan.should_crash("shard0", REPL_CRASH_POINTS[0], 11) is None

    def test_dict_positions_replay_a_recorded_run_like_the_list_scan(self, monkeypatch):
        # record the (shard, transition, txn) sequence a real lossy run with
        # a leader crash consults the plan with ...
        recorded = []
        original = ReplicaCrashPlan.should_crash

        def recording(plan, shard, transition, txn_id):
            recorded.append((shard, transition, txn_id))
            return original(plan, shard, transition, txn_id)

        monkeypatch.setattr(ReplicaCrashPlan, "should_crash", recording)
        run_replicated(
            replica_crashes=[
                ReplicaCrashSpec(
                    shard="shard0",
                    transition=REPL_CRASH_POINTS[0],
                    txn_index=2,
                    restart_delay=15.0,
                ),
                # never reached: keeps the plan counting to the end of the run
                ReplicaCrashSpec(
                    shard="shard1", transition=REPL_CRASH_POINTS[3], txn_index=10_000
                ),
            ],
            network_faults=NetworkFaultSpec(loss_probability=0.1, seed=2),
            num_transactions=12,
        )
        monkeypatch.undo()
        assert len(set(recorded)) > 100
        # ... and replay it, twice over so that every txn id also repeats,
        # through the plan and through the list scan it replaced: same
        # first-seen positions, same specs fired at the same calls
        recorded = recorded + recorded

        class ListScanPlan(ReplicaCrashPlan):
            def should_crash(self, shard, transition, txn_id):
                seen = self._seen.setdefault((shard, transition), [])
                if txn_id not in seen:
                    seen.append(txn_id)
                position = seen.index(txn_id)
                for spec in self._pending:
                    if (spec.shard, spec.transition, spec.txn_index) == (
                        shard,
                        transition,
                        position,
                    ):
                        self._pending.remove(spec)
                        return spec
                return None

        specs = [
            ReplicaCrashSpec(shard=shard, transition=transition, txn_index=index)
            for shard in ("shard0", "shard1")
            for transition in REPL_CRASH_POINTS
            for index in (0, 3, 7, 10_000)  # the last never fires: no early exit
        ]
        plan, reference = ReplicaCrashPlan(specs), ListScanPlan(specs)
        fired = [plan.should_crash(*call) for call in recorded]
        assert fired == [reference.should_crash(*call) for call in recorded]
        assert len([spec for spec in fired if spec is not None]) >= 12

    def test_replica_seed_is_deterministic_and_distinct(self):
        seeds = {replica_seed(7, s, r) for s in range(4) for r in range(3)}
        assert len(seeds) == 12
        assert replica_seed(7, 1, 2) == replica_seed(7, 1, 2)


class TestLeaderCrashSweep:
    """Satellite: crash the leader at every transition, demand agreement."""

    @pytest.mark.parametrize("transition", REPL_CRASH_POINTS)
    @pytest.mark.parametrize("txn_index", [0, 1])
    def test_group_converges_after_leader_crash(self, transition, txn_index):
        metrics = Metrics()
        initial, report = run_replicated(
            replica_crashes=[
                ReplicaCrashSpec(
                    shard="shard0",
                    transition=transition,
                    txn_index=txn_index,
                    restart_delay=15.0,
                )
            ],
            metrics=metrics,
        )
        assert metrics.snapshot()["dist.repl.crashes"] >= 1
        assert_group_agreement(report)
        assert_atomic_outcomes(initial, report)
        assert report.commit_count > 0

    @pytest.mark.parametrize("transition", REPL_CRASH_POINTS)
    def test_crash_runs_replay_byte_identically(self, transition):
        spec = ReplicaCrashSpec(
            shard="shard0", transition=transition, txn_index=1, restart_delay=15.0
        )
        _, a = run_replicated(replica_crashes=[spec])
        _, b = run_replicated(replica_crashes=[spec])
        assert a.digest() == b.digest()


class TestDuplicateDecideIdempotence:
    """Satellite: duplicated decision broadcasts must not double-apply."""

    def _run(self, monkeypatch, duplicate, replicas):
        """Run one batch; with ``duplicate`` every node is handed each 2PC
        decision twice, at its own ``on_message`` boundary (consuming no
        RNG).  Returns the number of decisions handed over as well."""
        handed_over = []
        register = SimulatedNetwork.register

        def wrapping_register(network, node):
            on_message = node.on_message

            def doubled(now, message):
                on_message(now, message)
                if message.kind == "decision":
                    handed_over.append(message.uid)
                    if duplicate:
                        handed_over.append(message.uid)
                        on_message(now, message)

            node.on_message = doubled
            return register(network, node)

        monkeypatch.setattr(SimulatedNetwork, "register", wrapping_register)
        initial, specs = cross_shard_transfer_workload(
            num_shards=2,
            accounts_per_shard=4,
            num_transactions=6,
            cross_fraction=0.9,
            seed=5,
        )
        report = run_distributed_batch(
            initial,
            specs,
            num_shards=2,
            shard_of=dist_shard_of,
            seed=5,
            replicas=replicas,
        )
        return initial, report, len(handed_over)

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_duplicate_decides_leave_state_unchanged(self, monkeypatch, replicas):
        initial, baseline, single = self._run(
            monkeypatch, duplicate=False, replicas=replicas
        )
        monkeypatch.undo()
        _, duplicated, doubled = self._run(monkeypatch, duplicate=True, replicas=replicas)
        # the duplication is real: nodes were handed more decisions
        assert doubled > single > 0
        assert duplicated.final_snapshot == baseline.final_snapshot
        assert sorted(duplicated.committed) == sorted(baseline.committed)
        outcomes = lambda report: [
            [(a.attempt, a.outcome, a.code) for a in history]
            for history in report.attempts
        ]
        assert outcomes(duplicated) == outcomes(baseline)

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_duplicated_run_is_itself_deterministic(self, monkeypatch, replicas):
        _, a, doubled = self._run(monkeypatch, duplicate=True, replicas=replicas)
        monkeypatch.undo()
        _, b, again = self._run(monkeypatch, duplicate=True, replicas=replicas)
        assert doubled == again > 0
        assert a.digest() == b.digest()


class TestEventBudget:
    """``max_events`` bounds the whole run, replicated or not."""

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_budget_is_for_the_whole_run(self, replicas):
        initial, specs = cross_shard_transfer_workload(
            num_shards=2,
            accounts_per_shard=4,
            num_transactions=8,
            cross_fraction=0.9,
            seed=3,
        )

        def run(**budget):
            return run_distributed_batch(
                initial,
                specs,
                num_shards=2,
                shard_of=dist_shard_of,
                seed=3,
                replicas=replicas,
                **budget,
            )

        needed = run().events_dispatched
        assert run(max_events=needed).events_dispatched == needed
        # a replicated run is driven in virtual-time chunks; the budget
        # must not start afresh with each of them
        with pytest.raises(RuntimeError, match="not converging"):
            run(max_events=needed - 1)


class TestPartitions:
    def test_minority_partition_commits_through(self):
        # one replica of shard0 cut off: the group keeps quorum and the
        # run must commit without ever reporting quorum loss
        faults = NetworkFaultSpec(
            partitions=(
                PartitionWindow(10.0, 60.0, frozenset({"shard0.r0"})),
            ),
        )
        initial, report = run_replicated(network_faults=faults, seed=4)
        assert report.commit_count > 0
        assert_group_agreement(report)
        assert_atomic_outcomes(initial, report)
        codes = {a.code for history in report.attempts for a in history}
        assert ABORT_REPL_NO_QUORUM not in codes

    def test_majority_isolation_sheds_with_no_quorum_code(self):
        # the coordinator can only reach a single replica of shard0; that
        # minority side must answer repl-no-quorum instead of hanging
        faults = NetworkFaultSpec(
            partitions=(
                PartitionWindow(
                    15.0, 100.0, frozenset({"shard0.r1", "shard0.r2"})
                ),
            ),
        )
        initial, report = run_replicated(
            network_faults=faults, num_transactions=10, seed=5
        )
        codes = {a.code for history in report.attempts for a in history}
        assert ABORT_REPL_NO_QUORUM in codes
        assert_group_agreement(report)
        assert_atomic_outcomes(initial, report)

    def test_partitioned_runs_replay_byte_identically(self):
        faults = NetworkFaultSpec(
            partitions=(
                PartitionWindow(
                    15.0, 100.0, frozenset({"shard0.r1", "shard0.r2"})
                ),
            ),
        )
        _, a = run_replicated(network_faults=faults, num_transactions=10, seed=5)
        _, b = run_replicated(network_faults=faults, num_transactions=10, seed=5)
        assert a.digest() == b.digest()


class TestTimedChaos:
    def test_timed_leader_crash_converges(self):
        metrics = Metrics()
        initial, report = run_replicated(
            replica_crashes=[
                ReplicaCrashSpec(shard="shard1", at=20.0, restart_delay=12.0)
            ],
            num_transactions=10,
            metrics=metrics,
        )
        assert metrics.snapshot()["dist.repl.crashes"] >= 1
        assert_group_agreement(report)
        assert_atomic_outcomes(initial, report)
        assert report.commit_count > 0

    def test_named_replica_crash_hits_that_replica(self):
        _, report = run_replicated(
            replica_crashes=[
                ReplicaCrashSpec(
                    shard="shard0", at=25.0, replica="shard0.r1", restart_delay=12.0
                )
            ],
        )
        replica = report.groups["shard0"].replica("shard0.r1")
        assert replica.network.incarnation_of(replica.name) == 1


class TestReplicationCost:
    """What Paxos costs in virtual time, and what failover buys.

    One batch of 24 cross-shard transfers over 2 shards, three ways:
    flat, three-replica groups, and three-replica groups with the shard0
    leader crashed at virtual time 25.  Failover latency is the time from
    the crash to the first later leader stint in the wounded group.
    """

    CRASH_AT = 25.0
    #: election timeout 8 + jitter 6 leaves a group leaderless for at
    #: most a few timeout rounds
    FAILOVER_CEILING = 60.0

    def _cells(self):
        initial, specs = cross_shard_transfer_workload(
            num_shards=2,
            accounts_per_shard=6,
            num_transactions=24,
            cross_fraction=0.9,
            seed=17,
        )
        crash = [ReplicaCrashSpec(shard="shard0", at=self.CRASH_AT, restart_delay=12.0)]
        cells = {}
        for name, kwargs in (
            ("flat", {}),
            ("replicated", {"replicas": 3}),
            ("leader-crash", {"replicas": 3, "replica_crashes": crash}),
        ):
            metrics = Metrics()
            report = run_distributed_batch(
                initial,
                specs,
                num_shards=2,
                shard_of=dist_shard_of,
                seed=17,
                metrics=metrics,
                **kwargs,
            )
            cells[name] = report, metrics.snapshot()
        return initial, cells

    def test_replication_costs_time_and_survives_failover(self):
        initial, cells = self._cells()
        for name, (report, _) in cells.items():
            assert sum(report.final_snapshot.values()) == sum(initial.values()), name
            assert report.commit_count >= int(0.75 * 24), name
        crashed, crashed_metrics = cells["leader-crash"]
        assert crashed_metrics["dist.repl.crashes"] >= 1
        starts = [
            stint["start"]
            for replica in crashed.groups["shard0"].replicas
            for stint in replica.leader_stints
            if stint["start"] > self.CRASH_AT
        ]
        assert starts, "no replica led shard0 after the crash"
        assert 0.0 < min(starts) - self.CRASH_AT <= self.FAILOVER_CEILING

    def test_replicated_cells_replay_byte_identically(self):
        _, first = self._cells()
        _, second = self._cells()
        for name in ("replicated", "leader-crash"):
            assert first[name][0].digest() == second[name][0].digest(), name


class TestTopologyValidation:
    def test_replica_crashes_require_replication(self):
        initial, specs = cross_shard_transfer_workload(
            num_shards=2,
            accounts_per_shard=3,
            num_transactions=2,
            cross_fraction=1.0,
            seed=0,
        )
        with pytest.raises(ValueError, match="replica"):
            run_distributed_batch(
                initial,
                specs,
                num_shards=2,
                shard_of=dist_shard_of,
                replicas=1,
                replica_crashes=[
                    ReplicaCrashSpec(shard="shard0", at=5.0)
                ],
            )

    def test_faultless_replicated_run_matches_itself(self):
        _, a = run_replicated(seed=7)
        _, b = run_replicated(seed=7)
        assert a.digest() == b.digest()
        assert a.commit_count > 0


def _topology_nodes():
    """One node of every kind a distributed run registers, none run."""
    flat = DistributedEngine(
        cross_shard_initial_data(2), num_shards=2, shard_of=dist_shard_of
    )
    replicated = DistributedEngine(
        cross_shard_initial_data(2),
        num_shards=2,
        shard_of=dist_shard_of,
        replicas=3,
        replica_crashes=[ReplicaCrashSpec(shard="shard0", at=5.0)],
    )
    return {
        "coordinator": flat.coordinator,
        "shard": flat.participants["shard0"],
        "replica": replicated.groups["shard0"].replicas[0],
        "chaos": replicated.chaos,
        "client": _Client(flat.network, flat.coordinator, [], flat.config, flat.metrics),
    }


class TestUnknownTraffic:
    """A node refuses a message or timer kind it has no handler for,
    rather than dropping it: a typo in a kind fails the run loudly."""

    @pytest.mark.parametrize("kind", ["coordinator", "shard", "replica", "chaos", "client"])
    def test_unknown_message_and_timer_kinds_are_refused(self, kind):
        node = _topology_nodes()[kind]
        with pytest.raises(ValueError):
            node.on_message(0.0, Message("elsewhere", node.name, "nonsense", {}, uid=0))
        with pytest.raises(ValueError):
            node.on_timer(0.0, "nonsense", {})

    def test_a_replica_refuses_an_unknown_log_command(self):
        replica = _topology_nodes()["replica"]
        with pytest.raises(ValueError, match="log command"):
            replica.apply_command(0.0, 0, ("nonsense", 1))


class TestCrashTrace:
    def test_a_leader_crash_is_traced_as_crash_then_recover(self):
        """The crashed leader's CRASH and RECOVER name it, its group and
        its term; a new election in that group follows the crash."""
        tracer = TraceRecorder()
        _, report = run_replicated(
            replica_crashes=[ReplicaCrashSpec(shard="shard0", at=25.0, restart_delay=12.0)],
            tracer=tracer,
        )
        events = [e for e in tracer.events if e.etype in (CRASH, RECOVER)]
        assert [e.etype for e in events] == [CRASH, RECOVER]
        crash, recover = events
        elections = [e for e in tracer.events if e.etype == ELECT and e.detail == "shard0"]
        leader_then = [e for e in elections if e.ts < crash.ts][-1]
        assert crash.ts == 25.0 and recover.ts == 37.0
        assert crash.detail == recover.detail == leader_then.meta["replica"]
        assert crash.meta == {"group": "shard0", "term": leader_then.meta["term"]}
        assert recover.meta["group"] == "shard0"
        assert any(
            e.ts > crash.ts and e.meta["term"] > crash.meta["term"] for e in elections
        )
        assert report.metrics.count("dist.repl.crashes") == 1
        assert report.metrics.count("dist.repl.restarts") == 1
