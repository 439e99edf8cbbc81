"""The conformance runner: seeded cells, judged, replayed and shrunk.

A **cell** is one seeded scenario, the runner that executes it and
judges the run with an oracle stack, and the CLI line that rebuilds it.
Two matrices of cells go through the same loop (:func:`check_cells`):

* the **differential matrix** (:func:`run_seed`): one seeded scenario
  under every registered protocol × executor/simulator.  A protocol may
  commit more or fewer transactions in one mode than another, but no
  cell may ever produce a non-conforming history;
* the **distributed chaos matrix** (:func:`run_dist_seed`): one seeded
  cross-shard 2PC scenario per chaos plan × {flat, Paxos-replicated}
  shards, judged by the distributed oracles.

A conforming engine produces **zero required-oracle violations in every
cell**.  Every cell also runs **twice** and must produce byte-identical
digests: that is what makes a failing cell's recipe line a complete
reproduction, so a mismatch fails the cell on its own.

When a cell fails, the **minimizing reporter** shrinks its scenario —
greedily dropping transaction programs while the failure persists —
re-runs the shrunk cell once under a tracer, and renders a
counterexample: the reduced programs, the violated oracles with their
offending cycle, the injected faults and the replay line.  A cell that
does not replay is reported unshrunk, since shrinking re-runs it.

The mutation smoke test (:func:`mutation_smoke`) closes the loop on the
harness itself: it registers a deliberately broken protocol — one of
:data:`MUTATIONS`: serializable-SI with pivot detection disabled, or
parallel OCC without its validator-vs-validator check — and demands
that the harness catch it and shrink a counterexample — proof the
oracles can actually see the class of bug they exist for.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dist.engine import run_distributed_batch
from repro.engine.faults import plan_from
from repro.engine.protocols.occ import OptimisticConcurrencyControl
from repro.engine.protocols.registry import (
    ONE_COPY_SERIALIZABLE,
    PROTOCOL_ENTRIES,
    SERIALIZABLE,
    ProtocolEntry,
    get_entry,
)
from repro.engine.protocols.snapshot_isolation import SnapshotIsolation
from repro.engine.runtime import TransactionExecutor
from repro.engine.simulator import SimulationConfig, Simulator
from repro.engine.storage import DataStore
from repro.engine.workloads import dist_shard_of
from repro.harness.oracles import OracleVerdict, evaluate_dist_run, evaluate_run
from repro.harness.recorder import HistoryRecorder
from repro.harness.scenarios import (
    DIST_PLANS,
    Scenario,
    build_dist_scenario,
    build_scenario,
)
from repro.obs.trace import TraceRecorder, Tracer

MODES = ("executor", "simulator")


@dataclass(frozen=True)
class CellOutcome:
    """One cell's run: what it committed and what the oracles said.

    ``attempts`` counts the transaction programs in the cell's scenario
    (the simulator cycles through them); ``replay_ok`` is cleared when
    a second run of the cell produced a different ``digest``.
    """

    cell: str
    committed: int
    attempts: int
    digest: str
    verdicts: Tuple[OracleVerdict, ...]
    fault_events: Tuple[str, ...] = ()
    replay_ok: bool = True

    @property
    def violations(self) -> Tuple[OracleVerdict, ...]:
        return tuple(v for v in self.verdicts if v.required and not v.ok)

    @property
    def ok(self) -> bool:
        return self.replay_ok and not self.violations


@dataclass(frozen=True)
class Cell:
    """One conformance cell: a scenario, its runner and its CLI recipe.

    ``run(scenario, tracer=None)`` executes and judges the cell; it must
    be a pure function of the scenario, since the replay check runs it
    twice and the shrinker runs it on reduced copies of ``scenario``.
    ``recipe`` is the CLI line that rebuilds this cell from its seed.
    """

    scenario: Any
    run: Callable[..., CellOutcome]
    recipe: str


@dataclass
class Counterexample:
    """A failing cell, shrunk and traced, ready to show a human."""

    cell: Cell
    #: the shrunk scenario (the cell's own when it was not shrunk)
    scenario: Any
    outcome: CellOutcome
    #: the reported scenario's full event trace (JSON-lines), captured
    #: by a dedicated re-run — for a cell that replays, exactly what a
    #: replay of ``replay_command()`` would see
    trace_jsonl: str

    @property
    def seed(self) -> int:
        return self.scenario.seed

    @property
    def original_spec_count(self) -> int:
        return len(self.cell.scenario.specs)

    def replay_command(self) -> str:
        """A CLI line that re-executes exactly the failing cell."""
        return self.cell.recipe

    def render(self) -> str:
        lines = [
            f"counterexample: seed={self.seed} scenario={self.scenario.name!r} "
            f"cell={self.outcome.cell} digest={self.outcome.digest[:16]}",
        ]
        if self.outcome.replay_ok:
            lines.append(
                f"shrunk to {len(self.scenario.specs)} of "
                f"{self.original_spec_count} transactions:"
            )
        else:
            lines.append(
                "replay mismatch: two runs of the same cell produced different "
                "digests (nondeterminism bug); not shrunk:"
            )
        lines.append(self.scenario.describe())
        if self.outcome.violations:
            lines.append("violated oracles:")
            lines.extend(f"  {verdict}" for verdict in self.outcome.violations)
        if self.outcome.fault_events:
            lines.append("injected faults:")
            lines.extend(f"  {event}" for event in self.outcome.fault_events)
        lines.append(f"replay: {self.replay_command()}")
        return "\n".join(lines)


@dataclass
class ConformanceReport:
    """Everything one seed produced across its cells."""

    seed: int
    title: str
    outcomes: List[CellOutcome] = field(default_factory=list)
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def summary(self) -> str:
        bad = [
            outcome.cell + ("" if outcome.replay_ok else " REPLAY-MISMATCH")
            for outcome in self.outcomes
            if not outcome.ok
        ]
        status = f"{len(bad)} violating: {', '.join(bad)}" if bad else "ok"
        return f"seed {self.seed} [{self.title}] {len(self.outcomes)} cells: {status}"


# ----------------------------------------------------------------------
# the one loop: run, replay, judge, shrink
# ----------------------------------------------------------------------

#: cell re-runs one shrink may spend
SHRINK_BUDGET = 160


def shrink_failing_scenario(
    cell: Cell, outcome: CellOutcome
) -> Tuple[Any, CellOutcome]:
    """Greedily drop transactions while the cell keeps failing.

    ``outcome`` is the failing run of ``cell.scenario``.  Classic
    ddmin-lite: one removal at a time, restart after every success, stop
    at a fixpoint or when the re-run budget is spent.  Deterministic —
    every candidate runs under the same seeds.
    """
    current = cell.scenario
    runs = 1
    improved = True
    while improved and runs < SHRINK_BUDGET and len(current.specs) > 1:
        improved = False
        for index in range(len(current.specs)):
            candidate = replace(
                current, specs=current.specs[:index] + current.specs[index + 1:]
            )
            candidate_outcome = cell.run(candidate)
            runs += 1
            if not candidate_outcome.ok:
                current, outcome = candidate, candidate_outcome
                improved = True
                break
            if runs >= SHRINK_BUDGET:
                break
    return current, outcome


def _counterexample(cell: Cell, outcome: CellOutcome) -> Counterexample:
    scenario = cell.scenario
    if outcome.replay_ok:
        scenario, outcome = shrink_failing_scenario(cell, outcome)
    # one more run with tracing on: the trace is deterministic, so it
    # shows exactly what a replay of the recipe line will do, step by step
    trace_recorder = TraceRecorder()
    cell.run(scenario, tracer=trace_recorder)
    return Counterexample(cell, scenario, outcome, trace_recorder.to_jsonl())


def check_cells(seed: int, title: str, cells: Sequence[Cell]) -> ConformanceReport:
    """Run every cell of one seed twice, judge it, shrink the first failure."""
    report = ConformanceReport(seed=seed, title=title)
    for cell in cells:
        outcome = cell.run(cell.scenario)
        if cell.run(cell.scenario).digest != outcome.digest:
            outcome = replace(outcome, replay_ok=False)
        report.outcomes.append(outcome)
        if not outcome.ok and report.counterexample is None:
            report.counterexample = _counterexample(cell, outcome)
    return report


# ----------------------------------------------------------------------
# the differential matrix: protocols × modes over one scenario
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
    only); ``tests/pins.py`` pins the round-robin digests.
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
        cell=f"{entry.name}/{mode}",
        committed=len(ctx.commits),
        attempts=len(scenario.specs),
        digest=recorder.digest(final_snapshot),
        verdicts=tuple(verdicts),
        fault_events=events,
    )


def _matrix_cell(
    entry: ProtocolEntry, scenario: Scenario, mode: str, quick: bool, recipe: str
) -> Cell:
    def run(candidate: Scenario, tracer: Optional[Tracer] = None) -> CellOutcome:
        return run_cell(entry, candidate, mode, quick, tracer=tracer)

    return Cell(scenario, run, recipe)


def run_seed(
    seed: int,
    protocols: Optional[Sequence[str]] = None,
    modes: Sequence[str] = MODES,
    quick: bool = False,
    family: Optional[str] = None,
    with_faults: Optional[bool] = None,
) -> ConformanceReport:
    """Run the full differential matrix for one seed.

    Each cell's recipe pins family and fault injection explicitly (the
    fuzzer consumes its RNG draws whether or not they are pinned, so
    the pins are byte-faithful) and carries ``--quick``, which changes
    scenario sizes.
    """
    scenario = build_scenario(seed, quick=quick, family=family, with_faults=with_faults)
    if protocols is None:
        entries = list(PROTOCOL_ENTRIES.values())
    else:
        entries = [get_entry(name) for name in protocols]
    faulty = scenario.fault_spec is not None
    pins = (
        f"--family {scenario.name} --faults {'on' if faulty else 'off'}"
        + (" --quick" if quick else "")
    )
    cells = [
        _matrix_cell(
            entry, scenario, mode, quick,
            f"python -m repro.harness --seed {seed} --protocol {entry.name} "
            f"--mode {mode} {pins}",
        )
        for entry in entries
        for mode in modes
    ]
    return check_cells(seed, scenario.name + (" +faults" if faulty else ""), cells)


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
        scenario = build_scenario(seed, quick=quick, family=family, with_faults=False)
        # the broken protocol is not in the registry, so the replay line
        # goes through --mutate, which re-runs this hunt on the one seed
        recipe = (
            f"python -m repro.harness --mutate {mutation} --seed {seed}"
            + (" --quick" if quick else "")
        )
        cell = _matrix_cell(entry, scenario, "executor", quick, recipe)
        report = check_cells(seed, family, [cell])
        if report.counterexample is not None:
            return report.counterexample
    return None


# ----------------------------------------------------------------------
# the distributed chaos matrix: plans × replication (repro.dist)
# ----------------------------------------------------------------------

#: replica-group size used by the replication axis of the dist matrix
DIST_REPLICAS = 3

#: the counters that record an injected distributed fault firing
DIST_FAULT_COUNTERS = (
    "dist.coordinator_crashes",
    "dist.repl.crashes",
    "dist.net.dropped",
    "dist.net.duplicated",
)


def _run_dist_scenario(scenario, tracer: Optional[Tracer] = None) -> Any:
    return run_distributed_batch(
        scenario.initial_data,
        list(scenario.specs),
        num_shards=scenario.num_shards,
        shard_of=dist_shard_of,
        network_faults=scenario.network_faults,
        crash_specs=list(scenario.crash_specs),
        seed=scenario.seed,
        tracer=tracer,
        replicas=scenario.replicas,
        replica_crashes=list(scenario.replica_crashes),
    )


def run_dist(scenario, tracer: Optional[Tracer] = None) -> CellOutcome:
    """Execute one distributed chaos cell and judge it with the dist oracles."""
    report = _run_dist_scenario(scenario, tracer)
    counts = [(name, report.metrics.count(name)) for name in DIST_FAULT_COUNTERS]
    return CellOutcome(
        cell=f"{scenario.plan}/r{scenario.replicas}",
        committed=report.commit_count,
        attempts=len(scenario.specs),
        digest=report.digest(),
        verdicts=tuple(evaluate_dist_run(scenario, report)),
        fault_events=tuple(f"{name}={count}" for name, count in counts if count),
    )


def run_dist_seed(
    seed: int,
    plans: Optional[Sequence[str]] = None,
    quick: bool = False,
    replication: str = "both",
) -> ConformanceReport:
    """The distributed conformance matrix for one seed: plans × replication.

    ``replication`` selects the replica axis: ``"off"`` runs each shard
    as a single participant, ``"on"`` as a three-replica Paxos group,
    ``"both"`` (the soak default) runs each plan both ways so the
    replicated engine answers to exactly the oracles the unreplicated
    one does — plus the four replication oracles.
    """
    replica_axis = {"both": (1, DIST_REPLICAS), "off": (1,), "on": (DIST_REPLICAS,)}
    if replication not in replica_axis:
        raise ValueError(
            f"replication must be 'both', 'on' or 'off', got {replication!r}"
        )
    cells = []
    for plan in plans or DIST_PLANS:
        for replicas in replica_axis[replication]:
            recipe = (
                f"python -m repro.harness --dist --seed {seed} --plan {plan} "
                f"--replication {'on' if replicas > 1 else 'off'}"
                + (" --quick" if quick else "")
            )
            scenario = build_dist_scenario(seed, plan=plan, quick=quick, replicas=replicas)
            cells.append(Cell(scenario, run_dist, recipe))
    return check_cells(seed, "dist", cells)
