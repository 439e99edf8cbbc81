"""The cross-protocol conformance harness (Elle/Jepsen-style, deterministic).

The repo ships many online concurrency-control protocols across two
execution modes.  Each has hand-written tests, but
the failure shape that matters most — per-key states that look fine
while the *global* history is non-serializable — hides in interleaving
windows no hand-written scenario was imagined for.  This subpackage
hunts those windows systematically:

* :mod:`repro.harness.scenarios` — a **seeded scenario fuzzer** that
  composes the engine's workload generators with adversarial shapes
  (write-skew cliques, read-only audits racing transfers, long scans
  over hot keys, skewed multi-key RMWs) and optional deterministic
  fault-injection plans (:mod:`repro.engine.faults`);
* :mod:`repro.harness.recorder` — a **history recorder** hooked into the
  engine kernel's commit notifications, capturing each committed
  attempt's program and read set once per run;
* :mod:`repro.harness.oracles` — the shared **oracle stack**:
  conflict-graph serializability for single-version protocols, MVSG
  one-copy-serializability for multi-version ones, a lifted-MVSG
  agreement guard, and per-scenario invariants (balance conservation,
  audit totals, lost-update detection);
* :mod:`repro.harness.runner` — the **differential runner**: the same
  seeded scenario across every registered protocol × executor/simulator,
  a byte-identical replay check, and a minimizing counterexample
  reporter that shrinks a failing scenario and pretty-prints the
  offending cycle.

Everything is a pure function of the seed, so a failing run is a
reproduction recipe: ``python -m repro.harness --seed N --protocol all``.
Protocols registered in :mod:`repro.engine.protocols.registry` get all
of this for free.
"""

from repro.harness.oracles import (
    OracleVerdict,
    evaluate_run,
    explain_conflict_cycle,
    lift_single_version_history,
)
from repro.harness.recorder import CommittedTransaction, HistoryRecorder, RunContext
from repro.harness.runner import (
    CellOutcome,
    ConformanceReport,
    MUTATIONS,
    Counterexample,
    broken_parallel_occ_entry,
    broken_serializable_si_entry,
    mutation_smoke,
    run_cell,
    run_seed,
    run_seeds,
)
from repro.harness.scenarios import Invariant, Scenario, build_scenario, scenario_families

__all__ = [
    "OracleVerdict",
    "evaluate_run",
    "explain_conflict_cycle",
    "lift_single_version_history",
    "CommittedTransaction",
    "HistoryRecorder",
    "RunContext",
    "CellOutcome",
    "ConformanceReport",
    "Counterexample",
    "MUTATIONS",
    "broken_parallel_occ_entry",
    "broken_serializable_si_entry",
    "mutation_smoke",
    "run_cell",
    "run_seed",
    "run_seeds",
    "Invariant",
    "Scenario",
    "build_scenario",
    "scenario_families",
]
