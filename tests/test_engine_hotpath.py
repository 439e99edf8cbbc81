"""The single-node hot path stays short; ``tests/pins.py`` pins its behaviour.

* **Call budget.**  Python-level calls per kernel step on the benchmark's
  smoke shape, counted with ``sys.setprofile`` — deterministic, no wall
  clock.
* **A step's answer.**  :meth:`EngineKernel.step` answers with a
  :class:`StepKind` member and builds nothing; a read's value is found
  in ``session.reads``.
"""

import gc
import math
import random
import sys

import pytest

from repro.engine.faults import FaultPlan, FaultSpec
from repro.engine.kernel import EngineKernel, StepKind
from repro.engine.mvstore import MultiVersionDataStore
from repro.engine.operations import TransactionSpec, increment_op, read_op, write_op
from repro.engine.protocols.base import Decision
from repro.engine.protocols.mvto import MultiVersionTimestampOrdering
from repro.engine.protocols.registry import get_entry
from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking
from repro.engine.runtime import run_batch
from repro.engine.simulator import SimulationConfig, Simulator
from repro.engine.storage import DataStore
from repro.engine.workloads import (
    WorkloadConfig,
    analytical_workload,
    hotspot_queue_workload,
    zipfian_generator,
)


# ----------------------------------------------------------------------
# the call budget
# ----------------------------------------------------------------------


def count_python_calls(fn):
    """Python-level ``call`` events, and ``EngineKernel.step`` calls among
    them, while ``fn`` runs (C calls excluded).

    The cyclic collector is flushed first and held off while counting:
    a collection that lands mid-run finalizes garbage earlier code left
    behind (closing a suspended generator is a ``call`` event), which
    would charge ``fn`` for calls it never made."""
    step_code = EngineKernel.step.__code__
    calls = steps = 0

    def profiler(frame, event, arg):
        nonlocal calls, steps
        if event == "call":
            calls += 1
            if frame.f_code is step_code:
                steps += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, steps, result


def _bench_smoke_shape():
    # bench/workloads.py's "smoke" sizing of exec-hotspot-2pl
    return hotspot_queue_workload(
        num_transactions=60,
        ops_per_transaction=6,
        num_hot=4,
        num_cold=192,
        hotspot_probability=0.9,
        zipf_theta=0.8,
        seed=0,
    )


class TestCallBudget:
    #: 36.7 calls per kernel step on this shape before the hot path
    #: rewrite; 18.3 while protocols logged every granted operation;
    #: 15.9 while each granted step built its own StepResult and went
    #: through a per-step executor routine; 11.1 while every wake was a
    #: callback and the run's totals four generator expressions; 9.95
    #: while every block still built a StepResult; 9.40 while each round
    #: called the run queue's ``advance`` and ``expired_cooldowns``;
    #: 8.50 since the executor schedules from one heap of round keys
    BUDGET = 8.6
    #: the MVTO scan shape read 16.55 calls per kernel step while the
    #: end-of-run verdict always built the MVSG; 15.0 with the
    #: version-stamp certificate answering instead; 14.6 before the
    #: shared GRANTED result and the executor loop stepping the kernel
    #: itself; 8.8 before the run's totals were tallied in one loop;
    #: 7.11 while a step answered with a StepResult; 7.03 while each
    #: round called the run queue and each finish an admission routine;
    #: 6.66 since
    MVTO_SCAN_BUDGET = 6.7
    #: the simulator shape read 15.9 calls per kernel step while
    #: ``Simulator._step`` and ``_schedule`` wrapped every step, each
    #: granted read built a ``Decision`` and crossed four frames to the
    #: store, and every begin re-scanned its program; 9.22 while each
    #: block, abort, validation and commit built a StepResult and took
    #: the protocol's probe count in a call; 8.23 since
    SIM_BUDGET = 8.3

    def test_calls_per_kernel_step_on_the_bench_smoke_shape(self):
        initial, specs = _bench_smoke_shape()
        factory = get_entry("strict-2pl").factory
        run = lambda: run_batch(factory, DataStore(initial), specs)  # noqa: E731
        run()  # uncounted: what the run imports on first use is not the hot path
        calls, steps, result = count_python_calls(run)
        assert result.committed == len(specs) and result.blocks > 0
        assert steps >= result.operations_issued
        per_step = calls / steps
        assert per_step <= self.BUDGET, (
            f"{per_step:.1f} Python calls per kernel step (budget "
            f"{self.BUDGET}): the hot path grew back"
        )

    def test_calls_per_kernel_step_on_the_mvto_scan_shape(self):
        # exec-scan-mvto's shape at 800 transactions: 90% declared
        # read-only 8-key scans, so the end-of-run verdict over ~6k
        # multi-version reads is a visible share of the calls
        config = WorkloadConfig(
            num_keys=1024,
            operations_per_transaction=4,
            hotspot_fraction=0.1,
            hotspot_probability=0.3,
        )
        initial, specs = analytical_workload(
            800, config, seed=0, read_fraction=0.9, scan_length=8
        )
        factory = get_entry("mvto").factory
        run = lambda: run_batch(  # noqa: E731
            factory, MultiVersionDataStore(initial), specs, max_concurrent=64
        )
        run()  # uncounted, as above
        calls, steps, result = count_python_calls(run)
        assert result.committed == len(specs) and result.committed_serializable
        per_step = calls / steps
        assert per_step <= self.MVTO_SCAN_BUDGET, (
            f"{per_step:.2f} Python calls per kernel step (budget "
            f"{self.MVTO_SCAN_BUDGET}) on the MVTO scan shape"
        )


    def test_calls_per_kernel_step_on_the_simulator_shape(self):
        # sim-zipf-occ's shape at a quarter of its virtual duration: 64
        # closed-loop clients under parallel-validation OCC, one abort
        # in three, a fixed pool of zipfian specs drawn up front
        config = WorkloadConfig(
            num_keys=1024,
            operations_per_transaction=4,
            read_fraction=0.5,
            zipf_theta=0.4,
        )
        initial, generate = zipfian_generator(config)
        rng = random.Random(0)
        pool = [generate(rng) for _ in range(1000)]
        factory = get_entry("occ-parallel").factory
        sim_config = SimulationConfig(
            num_clients=64,
            duration=100.0,
            scheduling_time=0.01,
            validation_probe_time=0.05,
            seed=0,
        )

        def run():
            feed = iter(pool)
            protocol = factory(DataStore(initial))
            return Simulator(protocol, lambda _rng: next(feed), sim_config).run()

        run()  # uncounted, as above
        calls, steps, report = count_python_calls(run)
        assert report.committed_serializable and report.aborts > 0
        assert steps == report.events_processed
        per_step = calls / steps
        assert per_step <= self.SIM_BUDGET, (
            f"{per_step:.2f} Python calls per kernel step (budget "
            f"{self.SIM_BUDGET}) on the simulator shape"
        )


class TestGrantedReadsAllocateNoDecision:
    """A granted read's value goes straight into ``session.reads``: the
    protocol answers with its shared grant, whatever the value."""

    @pytest.mark.parametrize("protocol", ["occ", "strict-2pl"])
    def test_a_grant_only_batch_constructs_no_decision(self, protocol, monkeypatch):
        # every spec on keys of its own: nothing blocks, nothing aborts
        initial = {f"k{i}": i + 1 for i in range(40)}
        specs = [
            TransactionSpec(
                [
                    read_op(f"k{2 * i}"),
                    read_op(f"k{2 * i + 1}"),
                    increment_op(f"k{2 * i}"),
                    write_op(f"k{2 * i + 1}", -i),
                ],
                name=f"t{i}",
            )
            for i in range(20)
        ]
        built = []
        construct = Decision.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0] if args else kwargs.get("kind"))
            construct(self, *args, **kwargs)

        monkeypatch.setattr(Decision, "__init__", counting)
        result = run_batch(get_entry(protocol).factory, DataStore(initial), specs)
        assert result.committed == len(specs) and result.blocks == 0
        assert result.metrics.count("protocol.reads_granted") == 3 * len(specs)
        assert built == []
        assert result.store_snapshot["k0"] == 2 and result.store_snapshot["k3"] == -1

    def test_read_still_answers_with_the_value(self):
        protocol = get_entry("occ").factory(DataStore({"x": 7, "y": None}))
        protocol.begin(1)
        assert protocol.read(1, "x").value == 7
        assert protocol.read(1, "y") is Decision.grant()
        reads = {}
        assert protocol.read_into(1, "x", reads) is Decision.grant()
        assert reads == {"x": 7}


class TestScalingExponent:
    """Work per committed operation must not grow with the batch.

    The first instalment of ROADMAP item 13a: one entry point
    (``run_batch``), one protocol (``strict-2pl``), one shape — every
    session queueing on a single hot key — at n, 4n and 16n sessions,
    under each interleaving.
    Deterministic, no wall clock: Python calls are counted with
    ``sys.setprofile`` like the budget above.

    On the parent of the PR that added it this test fails: without a
    queue on the lock every release woke every waiter to re-request, so
    ``protocol.blocks`` was about n^2/2 (1,225 / 19,900 / 319,600 at
    these sizes) and calls per operation grew linearly in n.
    """

    SIZES = (50, 200, 800)
    MAX_EXPONENT = 1.05

    @pytest.mark.parametrize("interleaving", ["round-robin", "random", "serial"])
    def test_one_hot_key_costs_the_same_per_operation_at_any_queue_length(
        self, interleaving
    ):
        factory = get_entry("strict-2pl").factory
        calls_at, operations_at = {}, {}
        for n in self.SIZES:
            initial, specs = hotspot_queue_workload(
                num_transactions=n,
                ops_per_transaction=4,
                num_hot=1,
                num_cold=1,
                hotspot_probability=1.0,
                seed=0,
            )
            calls, _, result = count_python_calls(
                lambda: run_batch(
                    factory, DataStore(initial), specs, interleaving=interleaving
                )
            )
            assert result.committed == n and result.restarts == 0
            assert result.operations_issued - result.blocks == 4 * n
            assert result.metrics.count("protocol.blocks") <= n
            if interleaving != "serial":
                # serial runs one transaction at a time: nothing queues
                assert result.metrics.count("protocol.blocks") > 0
            calls_at[n], operations_at[n] = calls, 4 * n
        small, large = self.SIZES[0], self.SIZES[-1]
        # total calls ~ operations ** exponent: 1.0 is a flat cost per
        # committed operation, 2.0 is what the herd did
        exponent = math.log(calls_at[large] / calls_at[small]) / math.log(
            operations_at[large] / operations_at[small]
        )
        assert exponent <= self.MAX_EXPONENT, (
            f"Python calls grow as operations^{exponent:.3f} on one hot key "
            f"({ {n: round(calls_at[n] / operations_at[n], 1) for n in self.SIZES} } "
            "calls per committed operation)"
        )


# ----------------------------------------------------------------------
# a step's answer
# ----------------------------------------------------------------------


class TestStepAnswers:
    def test_two_plain_grants_return_the_identical_result(self):
        kernel = EngineKernel(StrictTwoPhaseLocking(DataStore({"x": 1, "y": 2})))
        session = kernel.new_session(
            TransactionSpec([read_op("x"), write_op("y", 5)], name="t"), 0
        )
        assert kernel.step(session) is StepKind.STARTED
        first = kernel.step(session)
        second = kernel.step(session)
        assert first is StepKind.GRANTED and session.reads == {"x": 1}
        assert second is first
        assert kernel.step(session) is StepKind.COMMITTED

    @pytest.mark.parametrize("fast_path", [False, True], ids=["protocol", "fast"])
    def test_a_reads_value_lands_in_the_session(self, fast_path):
        initial = {"x": 7, "y": None, "z": "z0"}
        protocol = MultiVersionTimestampOrdering(MultiVersionDataStore(initial))
        kernel = EngineKernel(protocol)
        operations = [read_op("x"), read_op("y"), read_op("z")]
        if not fast_path:
            # a write makes the spec read-write: every read goes through
            # protocol.read, not the snapshot
            operations.append(write_op("w", 1))
        session = kernel.new_session(TransactionSpec(operations, name="t"), 0)
        kernel.step(session)
        assert (session.fast_snapshot is not None) is fast_path
        for _ in range(len(operations)):
            assert kernel.step(session) is StepKind.GRANTED
        assert session.reads == initial
        assert kernel.step(session) is StepKind.COMMITTED
        assert kernel.metrics.count("kernel.readonly_commits") == int(fast_path)

    @pytest.mark.parametrize("interleaving", ["serial", "round-robin", "random"])
    def test_a_blocking_batch_finishes_under_every_interleaving(self, interleaving):
        # injected stalls and aborts make even serial interleaving block
        # and restart, beside the hot keys' lock waits
        initial, specs = _bench_smoke_shape()
        faults = FaultSpec(stall_probability=0.1, abort_probability=0.02, seed=1)
        result = run_batch(
            get_entry("strict-2pl").factory,
            DataStore(initial),
            specs,
            interleaving=interleaving,
            seed=3,
            fault_plan=FaultPlan(faults),
        )
        assert result.committed == len(specs) and result.gave_up == 0
        assert result.blocks > 0 and result.restarts > 0
        assert result.committed_serializable
