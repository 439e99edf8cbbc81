"""The differential conformance runner.

One seeded scenario, every registered protocol, both execution modes:
each cell of the matrix runs the same transaction programs under the
same engine seed, records its committed history, and answers to the
shared oracle stack.  A conforming engine produces **zero
required-oracle violations in every cell** — that is the cross-run
agreement the differential design asserts: a protocol may commit more
or fewer transactions in one mode than another, but none of them may
ever produce a non-conforming history.

Each seed also gets a **replay check**: the first cell is executed
twice and must produce byte-identical history digests, which is what
makes a failing seed a complete reproduction recipe.

When a cell fails, the **minimizing reporter** shrinks the scenario —
greedily dropping transaction programs while the failure persists — and
renders a counterexample: the reduced programs, the violated oracles
with their offending cycle, and the injected-fault log.

The mutation smoke test (:func:`mutation_smoke`) closes the loop on the
harness itself: it registers a deliberately broken protocol — one of
:data:`MUTATIONS`: serializable-SI with pivot detection disabled, or
parallel OCC without its validator-vs-validator check — and demands
that the harness catch it and shrink a counterexample — proof the
oracles can actually see the class of bug they exist for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.engine.faults import plan_from
from repro.engine.protocols.occ import OptimisticConcurrencyControl
from repro.engine.protocols.registry import (
    ONE_COPY_SERIALIZABLE,
    PROTOCOL_ENTRIES,
    SERIALIZABLE,
    ProtocolEntry,
)
from repro.engine.protocols.snapshot_isolation import SnapshotIsolation
from repro.engine.runtime import TransactionExecutor
from repro.engine.simulator import SimulationConfig, Simulator
from repro.engine.storage import DataStore
from repro.harness.oracles import OracleVerdict, evaluate_run
from repro.harness.recorder import HistoryRecorder
from repro.harness.scenarios import Scenario, build_scenario
from repro.obs.trace import TraceRecorder, Tracer

MODES = ("executor", "simulator")


@dataclass(frozen=True)
class CellOutcome:
    """One matrix cell: a protocol run and its oracle verdicts."""

    protocol: str
    mode: str
    committed: int
    digest: str
    verdicts: Tuple[OracleVerdict, ...]
    fault_events: Tuple[str, ...] = ()

    @property
    def violations(self) -> Tuple[OracleVerdict, ...]:
        return tuple(v for v in self.verdicts if v.required and not v.ok)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class Counterexample:
    """A shrunk failing scenario, ready to show a human."""

    seed: int
    protocol: str
    mode: str
    original_spec_count: int
    scenario: Scenario
    outcome: CellOutcome
    quick: bool = False
    #: set when the failing protocol was a seeded mutation (not in the
    #: registry): the replay command then goes through ``--mutate``
    mutation: Optional[str] = None
    #: the shrunk cell's full event trace (JSON-lines), captured by a
    #: dedicated re-run — deterministic, so it is exactly what a replay
    #: of ``replay_command()`` would see
    trace_jsonl: Optional[str] = None

    def replay_command(self) -> str:
        """A CLI line that re-executes exactly the failing cell.

        Family and fault injection are pinned explicitly (the fuzzer
        consumes its RNG draws whether or not they are pinned, so the
        pins are byte-faithful) and ``--quick`` is carried because it
        changes scenario sizes.
        """
        quick = " --quick" if self.quick else ""
        if self.mutation is not None:
            return (
                f"python -m repro.harness --mutate {self.mutation} "
                f"--seed {self.seed}{quick}"
            )
        faults = "on" if self.scenario.fault_spec is not None else "off"
        return (
            f"python -m repro.harness --seed {self.seed} "
            f"--protocol {self.protocol} --mode {self.mode} "
            f"--family {self.scenario.name} --faults {faults}{quick}"
        )

    def render(self) -> str:
        lines = [
            f"counterexample: seed={self.seed} scenario={self.scenario.name!r} "
            f"cell={self.protocol}/{self.mode}",
            f"shrunk to {len(self.scenario.specs)} of {self.original_spec_count} "
            f"transactions:",
            self.scenario.describe(),
            "violated oracles:",
        ]
        for verdict in self.outcome.violations:
            lines.append(f"  {verdict}")
        if self.outcome.fault_events:
            lines.append("injected faults:")
            for event in self.outcome.fault_events:
                lines.append(f"  {event}")
        lines.append(f"replay: {self.replay_command()}")
        return "\n".join(lines)


@dataclass
class ConformanceReport:
    """Everything one seed produced across the matrix."""

    seed: int
    scenario: Scenario
    outcomes: List[CellOutcome] = field(default_factory=list)
    replay_ok: bool = True
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return self.replay_ok and all(outcome.ok for outcome in self.outcomes)

    def summary(self) -> str:
        cells = len(self.outcomes)
        bad = [outcome for outcome in self.outcomes if not outcome.ok]
        status = "ok" if self.ok else f"{len(bad)} violating cell(s)"
        faulty = " +faults" if self.scenario.fault_spec is not None else ""
        replay = "" if self.replay_ok else " REPLAY-MISMATCH"
        return (
            f"seed {self.seed} [{self.scenario.name}{faulty}] "
            f"{cells} cells: {status}{replay}"
        )


# ----------------------------------------------------------------------
# cell execution
# ----------------------------------------------------------------------


def run_cell(
    entry: ProtocolEntry,
    scenario: Scenario,
    mode: str,
    quick: bool = False,
    interleaving: str = "random",
    tracer: Optional[Tracer] = None,
) -> CellOutcome:
    """Execute one matrix cell and judge it with the oracle stack.

    ``interleaving`` is the executor's step order (executor-mode cells
    only); ``tests/test_engine_sched.py`` pins the round-robin digests.
    ``tracer`` threads a structured tracer through the cell's engine;
    tracing never perturbs the run, so a traced cell's digest is
    byte-identical to an untraced one (pinned by the determinism tests).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    store = DataStore(dict(scenario.initial_data))
    protocol = entry.factory(store)
    recorder = HistoryRecorder()
    fault_plan = plan_from(scenario.fault_spec)

    if mode == "executor":
        executor = TransactionExecutor(
            protocol,
            max_attempts=300,
            interleaving=interleaving,
            seed=scenario.seed,
            fault_plan=fault_plan,
            tracer=tracer,
        )
        recorder.attach(executor.kernel)
        executor.run(list(scenario.specs))
    else:
        config = SimulationConfig(
            num_clients=6,
            duration=90.0 if quick else 220.0,
            seed=scenario.seed,
            abort_backoff=2.0,
            max_attempts=40,
        )
        simulator = Simulator(
            protocol, scenario.generator(), config, fault_plan=fault_plan,
            tracer=tracer,
        )
        recorder.attach(simulator.kernel)
        simulator.run()

    final_snapshot = protocol.store.snapshot()
    ctx = recorder.context(scenario.initial_data, final_snapshot)
    verdicts = evaluate_run(protocol, scenario, ctx, entry.guarantee)
    events = tuple(str(event) for event in fault_plan.events) if fault_plan else ()
    return CellOutcome(
        protocol=entry.name,
        mode=mode,
        committed=len(ctx.commits),
        digest=recorder.digest(final_snapshot),
        verdicts=tuple(verdicts),
        fault_events=events,
    )


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------

#: cell re-runs one shrink may spend
SHRINK_BUDGET = 160


def shrink_failing_scenario(
    entry: ProtocolEntry,
    scenario: Scenario,
    mode: str,
    quick: bool = False,
) -> Tuple[Scenario, CellOutcome]:
    """Greedily drop transactions while the cell keeps failing.

    Classic ddmin-lite: one removal at a time, restart after every
    success, stop at a fixpoint or when the re-run budget is spent.
    Deterministic — every candidate runs under the same seeds.
    """
    current = scenario
    outcome = run_cell(entry, current, mode, quick)
    runs = 1
    improved = True
    while improved and runs < SHRINK_BUDGET and len(current.specs) > 1:
        improved = False
        for index in range(len(current.specs)):
            candidate = current.with_specs(
                current.specs[:index] + current.specs[index + 1:]
            )
            candidate_outcome = run_cell(entry, candidate, mode, quick)
            runs += 1
            if not candidate_outcome.ok:
                current, outcome = candidate, candidate_outcome
                improved = True
                break
            if runs >= SHRINK_BUDGET:
                break
    return current, outcome


# ----------------------------------------------------------------------
# the matrix
# ----------------------------------------------------------------------


def _resolve_entries(
    protocols: Optional[Sequence[str]],
    entries: Optional[Mapping[str, ProtocolEntry]],
) -> List[ProtocolEntry]:
    registry = PROTOCOL_ENTRIES if entries is None else entries
    if protocols is None:
        return list(registry.values())
    resolved = []
    for name in protocols:
        if name not in registry:
            known = ", ".join(registry)
            raise KeyError(f"unknown protocol {name!r}; registered: {known}")
        resolved.append(registry[name])
    return resolved


def run_seed(
    seed: int,
    protocols: Optional[Sequence[str]] = None,
    modes: Sequence[str] = MODES,
    quick: bool = False,
    family: Optional[str] = None,
    with_faults: Optional[bool] = None,
    entries: Optional[Mapping[str, ProtocolEntry]] = None,
) -> ConformanceReport:
    """Run the full differential matrix for one seed."""
    scenario = build_scenario(seed, quick=quick, family=family, with_faults=with_faults)
    report = ConformanceReport(seed=seed, scenario=scenario)
    selected = _resolve_entries(protocols, entries)
    for entry in selected:
        for mode in modes:
            outcome = run_cell(entry, scenario, mode, quick)
            report.outcomes.append(outcome)
            if not outcome.ok and report.counterexample is None:
                shrunk, shrunk_outcome = shrink_failing_scenario(
                    entry, scenario, mode, quick
                )
                # re-run the shrunk cell once with tracing on: the trace
                # is deterministic, so it shows exactly what a replay of
                # the recipe line will do, step by step
                trace_recorder = TraceRecorder()
                run_cell(entry, shrunk, mode, quick, tracer=trace_recorder)
                report.counterexample = Counterexample(
                    seed=seed,
                    protocol=entry.name,
                    mode=mode,
                    original_spec_count=len(scenario.specs),
                    scenario=shrunk,
                    outcome=shrunk_outcome,
                    quick=quick,
                    trace_jsonl=trace_recorder.to_jsonl(),
                )
    # byte-identical replay: re-run the first cell, compare digests
    if report.outcomes and selected:
        first = report.outcomes[0]
        rerun = run_cell(selected[0], scenario, first.mode, quick)
        report.replay_ok = rerun.digest == first.digest
    return report


def run_seeds(
    seeds: Iterable[int],
    protocols: Optional[Sequence[str]] = None,
    modes: Sequence[str] = MODES,
    quick: bool = False,
    family: Optional[str] = None,
    with_faults: Optional[bool] = None,
    entries: Optional[Mapping[str, ProtocolEntry]] = None,
) -> List[ConformanceReport]:
    """The soak loop: one differential matrix per seed."""
    return [
        run_seed(
            seed,
            protocols=protocols,
            modes=modes,
            quick=quick,
            family=family,
            with_faults=with_faults,
            entries=entries,
        )
        for seed in seeds
    ]


# ----------------------------------------------------------------------
# mutation smoke: prove the oracles can see the bug class they hunt
# ----------------------------------------------------------------------


def broken_serializable_si_entry() -> ProtocolEntry:
    """serializable-SI with pivot detection disabled (a seeded bug).

    The commit-time dangerous-structure check is skipped, turning the
    protocol into plain SI while it still *claims* one-copy
    serializability — exactly the committed-pivot gap class fixed in
    PR 3.  The harness must catch the lie via the MVSG oracle.
    """

    class BrokenSerializableSI(SnapshotIsolation):
        def __init__(self, store) -> None:
            super().__init__(store, serializable=True)

        def on_commit(self, txn_id: int):
            self.serializable = False
            try:
                return super().on_commit(txn_id)
            finally:
                self.serializable = True

    return ProtocolEntry(
        "serializable-si[broken-pivot]",
        BrokenSerializableSI,
        ONE_COPY_SERIALIZABLE,
        multiversion=True,
    )


def broken_parallel_occ_entry() -> ProtocolEntry:
    """occ-parallel without its validator-vs-validator check (a seeded bug).

    Two transactions inside the validation pipeline at once no longer
    check each other's footprints, so both can commit after reading
    what the other writes.  Their validation tickets then stop being a
    serial order: the protocol's ticket-order certificate must reject
    the history, and the conflict graph must show the cycle.
    """

    class BrokenParallelOCC(OptimisticConcurrencyControl):
        def __init__(self, store) -> None:
            super().__init__(store, validation="parallel")

        def _validate_against_validators(self, txn_id, validators):
            return None

    return ProtocolEntry(
        "occ-parallel[broken-validators]", BrokenParallelOCC, SERIALIZABLE
    )


#: the seeded mutations: name -> (the broken protocol's entry, the
#: scenario family that exposes it)
MUTATIONS: Dict[str, Tuple[Callable[[], ProtocolEntry], str]] = {
    "ssi-pivot": (broken_serializable_si_entry, "write-skew"),
    "occ-parallel-validators": (broken_parallel_occ_entry, "skewed-rmw"),
}


def mutation_smoke(
    seeds: Iterable[int] = range(12),
    quick: bool = True,
    mutation: str = "ssi-pivot",
) -> Optional[Counterexample]:
    """Hunt the mutation's scenario family with its broken protocol.

    Returns the shrunk counterexample from the first seed whose matrix
    cell flags the seeded bug, or ``None`` if no seed in the budget
    exposed it (which the test suite treats as a harness failure).
    """
    build, family = MUTATIONS[mutation]
    entry = build()
    for seed in seeds:
        report = run_seed(
            seed,
            protocols=[entry.name],
            modes=("executor",),
            quick=quick,
            family=family,
            with_faults=False,
            entries={entry.name: entry},
        )
        if report.counterexample is not None:
            report.counterexample.mutation = mutation
            return report.counterexample
    return None


# ----------------------------------------------------------------------
# distributed chaos cells (cross-shard 2PC, repro.dist)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DistCellOutcome:
    """One distributed chaos cell: a 2PC run and its oracle verdicts."""

    plan: str
    committed: int
    attempts: int
    crashes: int
    digest: str
    verdicts: Tuple[OracleVerdict, ...]
    replay_ok: bool
    replicas: int = 1

    @property
    def violations(self) -> Tuple[OracleVerdict, ...]:
        return tuple(v for v in self.verdicts if v.required and not v.ok)

    @property
    def ok(self) -> bool:
        return self.replay_ok and not self.violations


@dataclass
class DistReport:
    """Everything one seed produced across the chaos-plan matrix."""

    seed: int
    outcomes: List[Tuple[Any, DistCellOutcome]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for _scenario, outcome in self.outcomes)

    def summary(self) -> str:
        bad = [outcome for _s, outcome in self.outcomes if not outcome.ok]
        status = "ok" if self.ok else f"{len(bad)} violating cell(s)"
        cells = ", ".join(
            f"{outcome.plan}"
            + (f"+r{outcome.replicas}" if outcome.replicas > 1 else "")
            + f":{outcome.committed}/{outcome.attempts}c"
            + ("" if outcome.replay_ok else " REPLAY-MISMATCH")
            for _s, outcome in self.outcomes
        )
        return f"dist seed {self.seed} [{cells}] {status}"

    def render_failures(self) -> str:
        lines: List[str] = []
        for scenario, outcome in self.outcomes:
            if outcome.ok:
                continue
            lines.append(
                f"dist counterexample: seed={self.seed} plan={scenario.plan} "
                f"shards={scenario.num_shards} replicas={scenario.replicas}"
            )
            lines.append(scenario.describe())
            if not outcome.replay_ok:
                lines.append(
                    "  replay mismatch: the same cell produced two different "
                    "digests (nondeterminism bug)"
                )
            for verdict in outcome.violations:
                lines.append(f"  {verdict}")
            replication = "on" if scenario.replicas > 1 else "off"
            lines.append(
                f"replay: python -m repro.harness --dist --seed {self.seed} "
                f"--plan {scenario.plan} --replication {replication}"
            )
        return "\n".join(lines)


def _run_dist_scenario(scenario) -> Any:
    from repro.dist import run_distributed_batch
    from repro.engine.workloads import dist_shard_of

    return run_distributed_batch(
        scenario.initial_data,
        list(scenario.specs),
        num_shards=scenario.num_shards,
        shard_of=dist_shard_of,
        network_faults=scenario.network_faults,
        crash_specs=list(scenario.crash_specs),
        seed=scenario.seed,
        replicas=scenario.replicas,
        replica_crashes=list(scenario.replica_crashes),
    )


def run_dist_cell(scenario) -> DistCellOutcome:
    """Run one distributed chaos cell — twice, to pin replay determinism.

    The second run must produce a byte-identical digest; a mismatch is
    reported as its own failure (``replay_ok``), separate from oracle
    violations, because nondeterminism invalidates every other verdict's
    replayability.
    """
    from repro.harness.oracles import evaluate_dist_run

    report = _run_dist_scenario(scenario)
    rerun = _run_dist_scenario(scenario)
    verdicts = evaluate_dist_run(scenario, report)
    return DistCellOutcome(
        plan=scenario.plan,
        committed=report.commit_count,
        attempts=len(scenario.specs),
        crashes=report.metrics.count("dist.coordinator_crashes"),
        digest=report.digest(),
        verdicts=verdicts,
        replay_ok=report.digest() == rerun.digest(),
        replicas=scenario.replicas,
    )


#: replica-group size used by the replication axis of the dist matrix
DIST_REPLICAS = 3


def run_dist_seeds(
    seeds: Sequence[int],
    plans: Optional[Sequence[str]] = None,
    quick: bool = False,
    replication: str = "both",
) -> List[DistReport]:
    """The distributed conformance sweep: seeds × chaos plans × replication.

    ``replication`` selects the replica axis: ``"off"`` runs each shard
    as the single PR-8 participant, ``"on"`` as a three-replica Paxos
    group, ``"both"`` (the soak default) runs each plan both ways so
    the replicated engine answers to exactly the oracles the
    unreplicated one does — plus the four replication oracles.
    """
    from repro.harness.scenarios import DIST_PLANS, build_dist_scenario

    if replication not in ("both", "on", "off"):
        raise ValueError(
            f"replication must be 'both', 'on' or 'off', got {replication!r}"
        )
    replica_axis = {
        "both": (1, DIST_REPLICAS),
        "off": (1,),
        "on": (DIST_REPLICAS,),
    }[replication]
    chosen = tuple(plans) if plans else DIST_PLANS
    reports: List[DistReport] = []
    for seed in seeds:
        report = DistReport(seed=seed)
        for plan in chosen:
            for replicas in replica_axis:
                scenario = build_dist_scenario(
                    seed, plan=plan, quick=quick, replicas=replicas
                )
                report.outcomes.append((scenario, run_dist_cell(scenario)))
        reports.append(report)
    return reports
