"""Tests for the discrete-event simulator and its Section 6 latency decomposition."""

import pytest

from repro.engine.faults import ABORT_ACTION, COMMIT_STAGE
from repro.engine.operations import TransactionSpec, increment_op
from repro.engine.protocols.base import SerialProtocol
from repro.engine.protocols.occ import OptimisticConcurrencyControl
from repro.engine.protocols.sgt import SerializationGraphTesting
from repro.engine.protocols.timestamp_ordering import TimestampOrdering
from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking
from repro.engine.simulator import (
    LatencyBreakdown,
    SimulationConfig,
    Simulator,
    compare_protocols,
)
from repro.engine.storage import DataStore
from repro.engine.workloads import (
    WorkloadConfig,
    banking_generator,
    hotspot_generator,
    uniform_generator,
    zipfian_generator,
    zipfian_hotspot_generator,
)
from repro.obs.trace import ABORT, BEGIN, RESTART, WRITE, TraceRecorder


def _run(protocol_cls, duration=200.0, clients=4, seed=1, workload=None):
    initial, generate = workload or banking_generator(num_accounts=12)
    store = DataStore(initial)
    config = SimulationConfig(
        num_clients=clients, duration=duration, seed=seed, abort_backoff=3.0
    )
    return Simulator(protocol_cls(store), generate, config).run()


class TestLatencyBreakdown:
    def test_total_is_sum_of_components(self):
        breakdown = LatencyBreakdown(scheduling=1.0, waiting=2.5, execution=3.0)
        assert breakdown.total == pytest.approx(6.5)


class TestSimulatorBasics:
    def test_simulation_commits_transactions_and_stays_serializable(self):
        report = _run(StrictTwoPhaseLocking)
        assert report.committed > 0
        assert report.committed_serializable
        assert report.throughput > 0

    def test_deterministic_given_seed(self):
        a = _run(SerializationGraphTesting, seed=5)
        b = _run(SerializationGraphTesting, seed=5)
        assert a.committed == b.committed
        assert a.mean_response_time == pytest.approx(b.mean_response_time)

    def test_different_seeds_differ(self):
        a = _run(SerializationGraphTesting, seed=5)
        b = _run(SerializationGraphTesting, seed=6)
        assert (a.committed, a.operations) != (b.committed, b.operations)

    def test_breakdown_components_are_nonnegative(self):
        report = _run(StrictTwoPhaseLocking)
        breakdown = report.mean_breakdown
        assert breakdown.scheduling >= 0
        assert breakdown.waiting >= 0
        assert breakdown.execution > 0

    def test_report_summary_is_printable(self):
        report = _run(SerialProtocol)
        text = report.summary()
        assert "throughput" in text and "delay-free" in text


class TestSection6Decomposition:
    def test_serial_protocol_waits_more_than_sgt(self):
        serial = _run(SerialProtocol, duration=400, clients=6)
        sgt = _run(SerializationGraphTesting, duration=400, clients=6)
        # the serial scheduler's smaller fixpoint set shows up as more waiting
        assert serial.mean_breakdown.waiting > sgt.mean_breakdown.waiting
        assert serial.delay_free_fraction <= sgt.delay_free_fraction

    def test_single_client_never_waits(self):
        report = _run(StrictTwoPhaseLocking, clients=1, duration=200)
        assert report.blocks == 0
        assert report.aborts == 0
        assert report.delay_free_fraction == pytest.approx(1.0)

    def test_more_clients_increase_contention(self):
        low = _run(StrictTwoPhaseLocking, clients=2, duration=300, seed=2)
        high = _run(StrictTwoPhaseLocking, clients=10, duration=300, seed=2)
        assert high.blocks + high.aborts >= low.blocks + low.aborts


class TestConfigValidation:
    #: a negative execution_time gave a negative mean execution time, and
    #: with all three step costs 0 no event advanced the clock
    BAD = [{"duration": -1.0}, {"scheduling_time": -0.1}, {"execution_time": -1.0},
           {"think_time": -2.0}, {"retry_interval": -1.0}, {"abort_backoff": -2.0},
           {"validation_probe_time": -0.05}, {"num_clients": 0}, {"max_attempts": 0},
           {"scheduling_time": 0.0, "execution_time": 0.0, "think_time": 0.0}]

    @pytest.mark.parametrize("knob", BAD, ids=lambda knob: ",".join(knob))
    def test_values_that_hang_or_corrupt_the_run_are_rejected(self, knob):
        initial, generate = banking_generator(num_accounts=4)
        drawn = []

        def guarded(rng):
            # a valid 50-unit run draws a few dozen transactions: the
            # guard stops a clock that never advances
            drawn.append(None)
            assert len(drawn) < 5_000, "the simulated clock stopped advancing"
            return generate(rng)

        with pytest.raises(ValueError):
            config = SimulationConfig(**{"duration": 50.0, **knob})
            Simulator(SerialProtocol(DataStore(initial)), guarded, config).run()


#: (workload, config) pairs for the Section 6 comparison
COMPARISONS = {
    "uniform": (
        lambda: uniform_generator(WorkloadConfig(num_keys=32, seed=3)),
        SimulationConfig(num_clients=5, duration=200, seed=4),
    ),
    "banking": (
        lambda: banking_generator(num_accounts=24, audit_probability=0.05),
        SimulationConfig(num_clients=8, duration=600, seed=11, abort_backoff=4.0),
    ),
    # 10% of the keys get 75% of the accesses
    "hotspot": (
        lambda: hotspot_generator(
            WorkloadConfig(
                num_keys=48, operations_per_transaction=4, read_fraction=0.6, seed=2
            )
        ),
        SimulationConfig(num_clients=10, duration=400, seed=5, abort_backoff=4.0),
    ),
}


class TestCompareProtocols:
    @pytest.mark.parametrize("workload", sorted(COMPARISONS))
    def test_compare_runs_every_protocol_on_equal_footing(self, workload):
        make_workload, config = COMPARISONS[workload]
        initial, generate = make_workload()
        protocols = {
            "serial": SerialProtocol,
            "2pl": StrictTwoPhaseLocking,
            "sgt": SerializationGraphTesting,
            "timestamp": TimestampOrdering,
            "occ": OptimisticConcurrencyControl,
        }
        reports = compare_protocols(protocols, initial, generate, config)
        assert set(reports) == set(protocols)
        assert all(r.committed_serializable for r in reports.values())
        assert all(r.committed > 0 for r in reports.values())
        # the paper's shape: the serial scheduler's smaller fixpoint set
        # costs waiting
        assert (
            reports["serial"].mean_breakdown.waiting
            >= reports["sgt"].mean_breakdown.waiting
        )


class _AbortFirstCommits(StrictTwoPhaseLocking):
    """Aborts the first ``n`` commit requests it ever sees, then behaves
    normally — a deterministic way to force restarts of one client
    transaction."""

    def __init__(self, store, n=2):
        super().__init__(store)
        self._denials_left = n

    def on_commit(self, txn_id):
        if self._denials_left > 0:
            self._denials_left -= 1
            from repro.engine.protocols.base import Decision

            return Decision.abort("test: forced commit abort")
        return super().on_commit(txn_id)


class TestAbortRateSemantics:
    """Pin the attempt-level semantics of ``abort_rate`` (ISSUE 4): each
    restart of one client transaction counts as a distinct aborted
    attempt, so the denominator is finished *attempts*, not distinct
    transactions."""

    def test_restarts_of_one_transaction_each_count(self):
        initial, generate = uniform_generator(WorkloadConfig(num_keys=8))
        store = DataStore(initial)
        config = SimulationConfig(
            num_clients=1, duration=120, seed=1, abort_backoff=1.0
        )
        report = Simulator(_AbortFirstCommits(store, n=2), generate, config).run()
        # one client: both forced aborts hit the same logical transaction,
        # and both count — the rate is attempts-based
        assert report.aborts == 2
        assert report.committed > 0
        assert report.abort_rate == pytest.approx(
            2 / (report.committed + 2)
        )

    def test_rate_is_aborts_over_finished_attempts(self):
        from repro.engine.simulator import LatencyBreakdown, SimulationReport

        report = SimulationReport(
            protocol_name="x",
            duration=1.0,
            committed=3,
            aborts=2,
            blocks=0,
            operations=0,
            delay_free_transactions=0,
            mean_response_time=0.0,
            mean_breakdown=LatencyBreakdown(),
            committed_serializable=True,
            final_snapshot={},
        )
        assert report.abort_rate == pytest.approx(0.4)  # 2 / (3 + 2)

    def test_executor_abort_rate_matches(self):
        from repro.engine.operations import TransactionSpec, increment_op
        from repro.engine.runtime import TransactionExecutor

        # disjoint keys: the only aborts are the two forced ones
        specs = [
            TransactionSpec([increment_op(f"k{i}")], name=f"t{i}") for i in range(5)
        ]
        store = DataStore({f"k{i}": 0 for i in range(5)})
        executor = TransactionExecutor(_AbortFirstCommits(store, n=2))
        result = executor.run(specs)
        assert result.aborted_attempts == 2
        assert result.committed == 5
        assert result.abort_rate == pytest.approx(2 / 7)


class TestSimulatorHistograms:
    """The loop hands ``sim.wait_time`` and ``sim.response_time`` their
    observations once per run; each still enters the registry at its
    first observation, so the snapshot lists the names in the order
    ``Metrics.observe`` would have."""

    @pytest.mark.parametrize(
        "protocol_cls, names",
        [
            (
                StrictTwoPhaseLocking,
                [
                    "2pl.queue_depth",
                    "kernel.block_height",
                    "sim.wait_time",
                    "sim.response_time",
                ],
            ),
            (SerialProtocol, ["kernel.block_height", "sim.response_time", "sim.wait_time"]),
            (OptimisticConcurrencyControl, ["sim.response_time", "sim.wait_time"]),
        ],
        ids=["strict-2pl", "serial", "occ"],
    )
    def test_first_observation_order(self, protocol_cls, names):
        initial, generate = zipfian_hotspot_generator(
            WorkloadConfig(num_keys=12, read_fraction=0.4)
        )
        config = SimulationConfig(num_clients=12, duration=60.0, seed=4)
        simulator = Simulator(protocol_cls(DataStore(initial)), generate, config)
        report = simulator.run()
        assert list(report.metrics.histograms) == names
        responses = report.metrics.histogram("sim.response_time")
        assert responses.count == report.committed
        assert responses.total == sum(simulator.response_times)
        assert report.metrics.histogram("sim.wait_time").count > 0

    def test_a_second_run_observes_each_response_time_once(self):
        # the first run's 23 response times were observed again by the
        # second, whose histogram read 71 for 48 commits
        initial, generate = zipfian_generator(
            WorkloadConfig(
                num_keys=64, operations_per_transaction=4, read_fraction=0.5, zipf_theta=0.4
            )
        )
        config = SimulationConfig(num_clients=4, duration=50.0, seed=1)
        simulator = Simulator(OptimisticConcurrencyControl(DataStore(initial)), generate, config)
        first = simulator.run()
        assert first.metrics.histogram("sim.response_time").count == first.committed
        second = simulator.run()
        assert second.committed > first.committed
        responses = second.metrics.histogram("sim.response_time")
        assert responses.count == second.committed == len(simulator.response_times)
        assert responses.total == pytest.approx(sum(simulator.response_times))


class _AbortCommitOf:
    """A fault plan that aborts one transaction's commit request."""

    def __init__(self, txn_id):
        self.txn_id = txn_id

    def intercept(self, txn_id, stage, key):
        if txn_id == self.txn_id and stage == COMMIT_STAGE:
            return ABORT_ACTION
        return None


class TestValidationProbeCharge:
    """A step is charged the growth of the protocol's cumulative probe
    count since the simulator last read it."""

    def test_an_injected_commit_abort_is_charged_no_probe_time(self):
        # two clients updating keys of their own, so serial OCC validates
        # one read-set key per commit and nothing conflicts.  Client 0
        # (T1) updates at 0-1 and commits at 2-3, its probe holding the
        # critical section to 3.5; client 1 (T2) updates at 1-2, and its
        # commit request at 3 waits for the section, then meets the
        # injected abort at 3.5-4.5: right after T1's validation, but it
        # never reached the protocol, so no probe time is charged.
        specs = iter(
            TransactionSpec([increment_op(key)], name=key) for key in "ab" * 8
        )
        config = SimulationConfig(
            num_clients=2,
            duration=8.0,
            scheduling_time=1.0,
            execution_time=1.0,
            think_time=0.0,
            abort_backoff=2.0,
            validation_probe_time=0.5,
            seed=0,
        )
        tracer = TraceRecorder()
        protocol = OptimisticConcurrencyControl(DataStore({"a": 0, "b": 0}))
        report = Simulator(
            protocol,
            lambda _rng: next(specs),
            config,
            fault_plan=_AbortCommitOf(2),
            tracer=tracer,
        ).run()
        assert report.committed_serializable
        events = [(event.etype, event.ts) for event in tracer.events if event.session_id == 1]
        # a probe charged to the fault step would delay the restart to 7.0
        assert events[:4] == [(BEGIN, 0.0), (WRITE, 2.0), (ABORT, 4.5), (RESTART, 4.5)]
        assert events[4] == (BEGIN, 6.5)
        assert report.metrics.count("kernel.fault_aborts") == 1
