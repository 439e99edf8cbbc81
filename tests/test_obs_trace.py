"""The tracing layer: determinism, zero perturbation, abort taxonomy.

Three properties, all load-bearing:

* **byte-identical traces** — the same seed serializes to the same
  bytes, across both front-ends and both wait policies (timestamps are
  logical, so nothing wall-clock can leak into the event stream);
* **zero perturbation** — a traced harness cell produces the same
  history digest as an untraced one, so traces can be attached to
  counterexamples without invalidating the replay recipe, and a
  disabled tracer costs not one Python call;
* **complete abort taxonomy** — every abort every registered protocol
  emits carries a machine-readable reason code from
  :mod:`repro.engine.reasons`.
"""

import pytest

from test_engine_hotpath import count_python_calls

from repro.engine.faults import FaultPlan, FaultSpec
from repro.engine.mvstore import MultiVersionDataStore
from repro.engine.protocols.base import SnapshotAborted
from repro.engine.protocols.occ import OptimisticConcurrencyControl
from repro.engine.protocols.registry import PROTOCOL_ENTRIES, get_entry
from repro.engine.protocols.snapshot_isolation import SnapshotIsolation
from repro.engine.reasons import (
    ABORT_FAULT_INJECTED,
    ABORT_LOCK_DEADLOCK,
    ABORT_OCC_HISTORY_OVERFLOW,
    ABORT_OCC_PIPELINE_OVERLAP,
    ABORT_OCC_READ_INVALIDATED,
    ABORT_REASONS,
    ABORT_SI_FIRST_COMMITTER,
    ABORT_SSI_FASTPATH_PIVOT,
    ABORT_SSI_PIVOT,
    ABORT_UNSPECIFIED,
    ABORT_MVTO_READ_INVALIDATION,
    ABORT_SG_CYCLE,
    ABORT_TO_READ_TOO_LATE,
    ABORT_TO_WRITE_TOO_LATE,
    ABORT_WAIT_DEADLOCK,
)
from repro.engine.runtime import run_batch
from repro.engine.simulator import SimulationConfig, Simulator
from repro.engine.storage import DataStore
from repro.engine.workloads import (
    WorkloadConfig,
    hotspot_queue_workload,
    zipfian_hotspot_generator,
    zipfian_hotspot_workload,
)
from repro.harness.runner import run_cell
from repro.harness.scenarios import build_scenario
from repro.obs.trace import (
    EVENT_TYPES,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    TraceRecorder,
)

import repro.obs.trace as ev


def _traced_batch(protocol_name, seed):
    initial, specs = zipfian_hotspot_workload(num_transactions=40, seed=seed)
    recorder = TraceRecorder()
    run_batch(
        get_entry(protocol_name).factory,
        DataStore(initial),
        specs,
        seed=seed,
        tracer=recorder,
    )
    return recorder


class CountingTracer(NullTracer):
    """Disabled like the default, but counts any ``emit`` that reaches it."""

    emits = 0

    def emit(self, *args, **kwargs):
        self.emits += 1


# ----------------------------------------------------------------------
# determinism: byte-identical serialized traces per seed
# ----------------------------------------------------------------------


class TestTraceDeterminism:
    @pytest.mark.parametrize("protocol", ["strict-2pl", "occ", "serializable-si"])
    @pytest.mark.parametrize("seed", [9, 17])
    def test_executor_trace_is_byte_identical_per_seed(self, protocol, seed):
        first = _traced_batch(protocol, seed=seed)
        second = _traced_batch(protocol, seed=seed)
        assert first.to_jsonl() == second.to_jsonl()
        assert len(first.events) > 0

    @pytest.mark.parametrize("mode", ["executor", "simulator"])
    @pytest.mark.parametrize(
        "scenario_id, with_faults", [(3, False), (6, True)], ids=["clean", "faulty"]
    )
    def test_harness_cell_trace_is_byte_identical(self, mode, scenario_id, with_faults):
        scenario = build_scenario(scenario_id, quick=True, with_faults=with_faults)
        assert (scenario.fault_spec is not None) == with_faults
        entry = get_entry("strict-2pl")
        first, second = TraceRecorder(), TraceRecorder()
        run_cell(entry, scenario, mode, quick=True, tracer=first)
        run_cell(entry, scenario, mode, quick=True, tracer=second)
        assert first.to_jsonl() == second.to_jsonl()
        assert len(first.events) > 0

    def test_tracing_does_not_perturb_history_digests(self):
        """A traced cell and an untraced cell replay byte-identically."""
        scenario = build_scenario(5, quick=True)
        for mode in ("executor", "simulator"):
            entry = get_entry("serializable-si")
            bare = run_cell(entry, scenario, mode, quick=True)
            traced = run_cell(
                entry, scenario, mode, quick=True, tracer=TraceRecorder()
            )
            nulled = run_cell(entry, scenario, mode, quick=True, tracer=NullTracer())
            assert traced.digest == bare.digest
            assert nulled.digest == bare.digest

    def test_trace_round_trips_through_files(self, tmp_path):
        recorder = _traced_batch("occ", seed=2)
        path = str(tmp_path / "t.trace")
        recorder.save(path)
        loaded = TraceRecorder.load(path)
        assert loaded.to_jsonl() == recorder.to_jsonl()
        assert all(isinstance(event, TraceEvent) for event in loaded.events)

    def test_timestamps_are_logical(self):
        """Executor events are stamped with scheduler rounds: small
        monotone ints, never wall-clock floats."""
        recorder = _traced_batch("strict-2pl", seed=1)
        stamps = [event.ts for event in recorder.events]
        assert all(isinstance(ts, int) for ts in stamps)
        assert stamps == sorted(stamps)


# ----------------------------------------------------------------------
# the null tracer
# ----------------------------------------------------------------------


class TestNullTracer:
    def test_null_tracer_is_disabled_and_silent(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit(ev.BEGIN, 0, 1, 1)
        NULL_TRACER.span("x", 0.0, 1.0)

    def test_disabled_tracer_is_never_called_and_costs_no_calls(self):
        """The kernel checks ``tracer.enabled`` once and then skips even
        the argument packing: a disabled tracer's ``emit`` never runs, and
        the run makes exactly as many Python calls as one without a
        tracer.  The workload is all queueing (single-key writers on 4
        hot keys under strict 2PL), so every step goes through the
        scheduler loop, the kernel and the wake path."""
        initial, specs = hotspot_queue_workload(
            num_transactions=60,
            ops_per_transaction=6,
            num_hot=4,
            hotspot_probability=0.9,
            zipf_theta=0.8,
            seed=7,
        )

        def calls_of(tracer):
            calls, _, _ = count_python_calls(
                lambda: run_batch(
                    get_entry("strict-2pl").factory,
                    DataStore(initial),
                    specs,
                    interleaving="round-robin",
                    seed=7,
                    tracer=tracer,
                )
            )
            return calls

        disabled = CountingTracer()
        assert calls_of(disabled) == calls_of(None)
        assert disabled.emits == 0

    @pytest.mark.parametrize("interleaving", ["round-robin", "random"])
    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_ENTRIES))
    def test_disabled_tracer_costs_no_calls_under_every_protocol(
        self, protocol, interleaving
    ):
        """The same two checks on the contended zipfian batch the abort
        taxonomy uses, under every registered protocol: its blocks,
        validations, aborts and restarts go through each protocol's own
        emission sites, and a disabled tracer must reach none of them."""
        initial, specs = zipfian_hotspot_workload(num_transactions=40, seed=5)

        def calls_of(tracer):
            calls, _, _ = count_python_calls(
                lambda: run_batch(
                    get_entry(protocol).factory,
                    DataStore(initial),
                    specs,
                    interleaving=interleaving,
                    seed=5,
                    tracer=tracer,
                )
            )
            return calls

        disabled = CountingTracer()
        assert calls_of(disabled) == calls_of(None)
        assert disabled.emits == 0

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_ENTRIES))
    def test_disabled_tracer_costs_no_calls_in_the_simulator(self, protocol):
        """The simulator front-end stamps virtual time on the tracer it
        shares with the kernel; with a disabled tracer it too must make
        exactly the calls of a tracer-less run and never call ``emit``.
        Each run draws from a generator of its own: a generator builds
        each distinct operation once, so a reused one does less work."""
        config = SimulationConfig(num_clients=12, duration=60.0, seed=4)

        def calls_of(tracer):
            initial, generate = zipfian_hotspot_generator(
                WorkloadConfig(num_keys=12, read_fraction=0.4)
            )
            calls, _, report = count_python_calls(
                lambda: Simulator(
                    get_entry(protocol).factory(DataStore(initial)),
                    generate,
                    config,
                    tracer=tracer,
                ).run()
            )
            assert report.committed > 0
            return calls

        disabled = CountingTracer()
        assert calls_of(disabled) == calls_of(None)
        assert disabled.emits == 0

    def test_event_types_cover_the_lifecycle(self):
        assert set(EVENT_TYPES) == {
            "begin", "read", "write", "block", "wake",
            "validate", "commit", "abort", "restart",
        }


# ----------------------------------------------------------------------
# the abort taxonomy
# ----------------------------------------------------------------------

#: the code(s) each protocol is expected to produce on the contended
#: zipfian workload (seed picked so every row actually aborts)
EXPECTED_CODES = {
    "strict-2pl": {ABORT_LOCK_DEADLOCK},
    "sgt": {ABORT_WAIT_DEADLOCK, ABORT_SG_CYCLE},
    "timestamp": {ABORT_TO_READ_TOO_LATE, ABORT_TO_WRITE_TOO_LATE},
    "occ": {ABORT_OCC_READ_INVALIDATED},
    "occ-parallel": {ABORT_OCC_PIPELINE_OVERLAP},
    "mvto": {ABORT_MVTO_READ_INVALIDATION},
    "si": {ABORT_SI_FIRST_COMMITTER},
    "serializable-si": {ABORT_SI_FIRST_COMMITTER, ABORT_SSI_PIVOT},
}


class TestAbortTaxonomy:
    def test_registry_covers_every_constant(self):
        import repro.engine.reasons as reasons

        constants = {
            value
            for name, value in vars(reasons).items()
            if name.startswith("ABORT_") and isinstance(value, str)
        }
        assert constants == set(ABORT_REASONS)
        assert all(ABORT_REASONS[code] for code in ABORT_REASONS)

    @pytest.mark.parametrize("protocol", sorted(EXPECTED_CODES))
    def test_every_abort_carries_a_code(self, protocol):
        recorder = _traced_batch(protocol, seed=5)
        aborts = [event for event in recorder.events if event.etype == ev.ABORT]
        assert aborts, f"{protocol} produced no aborts on the contended workload"
        seen = {event.code for event in aborts}
        assert None not in seen, f"{protocol} emitted an uncoded abort"
        assert seen <= set(ABORT_REASONS)
        assert seen >= EXPECTED_CODES[protocol]

    def test_occ_abort_names_the_conflicting_writer(self):
        recorder = _traced_batch("occ", seed=5)
        invalidated = [
            event
            for event in recorder.events
            if event.code == ABORT_OCC_READ_INVALIDATED
        ]
        assert invalidated
        named = [event for event in invalidated if event.blockers]
        assert named, "no OCC abort named its conflicting writer"
        for event in named:
            assert event.key is not None
            assert f"T{event.blockers[0]}" in event.detail

    def test_occ_history_overflow_code(self):
        protocol = OptimisticConcurrencyControl(
            DataStore({"x": 0, "y": 0}), history_limit=1
        )
        protocol.begin(1)
        protocol.read(1, "x")
        for txn_id in (2, 3):
            protocol.begin(txn_id)
            protocol.write(txn_id, "y", txn_id)
            assert protocol.commit(txn_id).granted
        decision = protocol.commit(1)
        assert decision.aborted
        assert decision.code == ABORT_OCC_HISTORY_OVERFLOW

    def test_ssi_fastpath_pivot_code(self):
        protocol = SnapshotIsolation(
            MultiVersionDataStore({"x": 0, "y": 0}), serializable=True
        )
        # T2 snapshots early and reads x; T1 overwrites x and commits,
        # giving T2 an outbound rw-antidependency.
        protocol.begin(2)
        protocol.read(2, "x")
        protocol.begin(1)
        protocol.write(1, "x", 5)
        assert protocol.commit(1).granted
        # a fast-path lease taken before T2 commits...
        lease = protocol.readonly_snapshot()
        protocol.write(2, "y", 9)
        assert protocol.commit(2).granted  # no inbound edge yet: commits
        # ...must refuse to read the key the committed pivot overwrote
        with pytest.raises(SnapshotAborted) as excinfo:
            protocol.snapshot_read("y", lease)
        assert excinfo.value.code == ABORT_SSI_FASTPATH_PIVOT
        assert excinfo.value.conflict_txns == (2,)

    def test_injected_faults_carry_the_fault_code(self):
        initial, specs = hotspot_queue_workload(
            num_transactions=30, ops_per_transaction=6, seed=4
        )
        recorder = TraceRecorder()
        run_batch(
            get_entry("strict-2pl").factory,
            DataStore(initial),
            specs,
            seed=4,
            fault_plan=FaultPlan(FaultSpec(abort_probability=0.2, seed=4)),
            tracer=recorder,
        )
        fault_aborts = [
            event
            for event in recorder.events
            if event.etype == ev.ABORT and event.code == ABORT_FAULT_INJECTED
        ]
        assert fault_aborts, "no injected abort surfaced in the trace"

    def test_unspecified_is_registered_but_never_emitted_by_protocols(self):
        assert ABORT_UNSPECIFIED in ABORT_REASONS
        for protocol in EXPECTED_CODES:
            recorder = _traced_batch(protocol, seed=5)
            for event in recorder.events:
                if event.etype == ev.ABORT:
                    assert event.code != ABORT_UNSPECIFIED


# ----------------------------------------------------------------------
# counterexample traces
# ----------------------------------------------------------------------


class TestCounterexampleTrace:
    def test_mutation_counterexample_carries_a_trace(self):
        from repro.harness.runner import mutation_smoke

        counterexample = mutation_smoke(seeds=range(12), quick=True)
        assert counterexample is not None
        assert counterexample.trace_jsonl
        lines = counterexample.trace_jsonl.strip().splitlines()
        events = [TraceEvent.from_dict(__import__("json").loads(l)) for l in lines]
        assert any(event.etype == ev.COMMIT for event in events)
