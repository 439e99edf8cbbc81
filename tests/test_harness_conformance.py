"""The conformance harness: quick differential matrix, oracles, faults, CLI.

Tier-1 runs a reduced matrix (a few seeds, quick sizes); the CI
``harness-soak`` job and ``python -m repro.harness`` run the long form.
The decisive checks:

* every registered protocol × executor/simulator cell conforms on
  fuzzed scenarios, with and without fault injection;
* histories replay byte-identically from a seed (including faults);
* the oracle-agreement guard: a history the conflict-graph checker
  accepts is also accepted by the MVSG checker after lifting to
  single-version reads;
* the mutation smoke: deliberately breaking serializable-SI's pivot
  check makes the harness produce a *shrunk* counterexample — proof the
  oracles can see the bug class they hunt.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import small_batches

from repro.analysis.mvsg import one_copy_serializable
from repro.engine.faults import FaultPlan, FaultSpec, plan_from
from repro.engine.protocols.base import ConcurrencyControl, Decision
from repro.engine.protocols.registry import PROTOCOL_ENTRIES
from repro.engine.protocols.sgt import SerializationGraphTesting
from repro.engine.protocols.timestamp_ordering import TimestampOrdering
from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking
from repro.engine.runtime import TransactionExecutor
from repro.engine.storage import DataStore
from repro.harness.__main__ import main as harness_main, parse_protocols, parse_seeds
from repro.harness.oracles import explain_conflict_cycle, lift_single_version_history
from repro.harness.runner import (
    MODES,
    Cell,
    mutation_smoke,
    run_cell,
    run_seed,
    shrink_failing_scenario,
)
from repro.harness.scenarios import build_scenario, scenario_families
from repro.obs.__main__ import main as obs_main

QUICK_SEEDS = [0, 1, 2]


# ----------------------------------------------------------------------
# the differential matrix (tier-1 quick form)
# ----------------------------------------------------------------------


class TestQuickMatrix:
    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_all_cells_conform(self, seed):
        report = run_seed(seed, quick=True)
        bad = [outcome.cell for outcome in report.outcomes if not outcome.ok]
        assert report.ok, f"violating cells: {bad}"
        # the matrix really is protocols x modes, and every cell replayed
        assert len(report.outcomes) == len(PROTOCOL_ENTRIES) * 2
        assert all(outcome.replay_ok for outcome in report.outcomes)

    def test_matrix_covers_every_registered_protocol(self):
        report = run_seed(0, quick=True)
        assert [outcome.cell for outcome in report.outcomes] == [
            f"{name}/{mode}" for name in PROTOCOL_ENTRIES for mode in MODES
        ]

    def test_forced_scenario_family_with_faults_conforms(self):
        report = run_seed(
            4, quick=True, family="transfers-vs-audits", with_faults=True
        )
        assert report.ok
        assert report.summary().startswith("seed 4 [transfers-vs-audits +faults] ")


# ----------------------------------------------------------------------
# seeded replay
# ----------------------------------------------------------------------


class TestReplay:
    def test_executor_cell_replays_byte_identically(self):
        scenario = build_scenario(3, quick=True)
        entry = PROTOCOL_ENTRIES["strict-2pl"]
        first = run_cell(entry, scenario, "executor", quick=True)
        second = run_cell(entry, scenario, "executor", quick=True)
        assert first.digest == second.digest
        assert first.fault_events == second.fault_events

    def test_simulator_cell_replays_byte_identically(self):
        scenario = build_scenario(6, quick=True, with_faults=True)
        entry = PROTOCOL_ENTRIES["mvto"]
        first = run_cell(entry, scenario, "simulator", quick=True)
        second = run_cell(entry, scenario, "simulator", quick=True)
        assert first.digest == second.digest
        assert first.fault_events == second.fault_events

    def test_scenario_fuzzer_is_deterministic(self):
        a = build_scenario(11)
        b = build_scenario(11)
        assert a.name == b.name
        assert a.describe() == b.describe()
        assert a.fault_spec == b.fault_spec
        assert a.initial_data == b.initial_data

    def test_family_override(self):
        for family in scenario_families():
            scenario = build_scenario(9, quick=True, family=family)
            assert scenario.name == family
        with pytest.raises(ValueError, match="unknown scenario family"):
            build_scenario(9, family="nope")

    def test_pinning_natural_draws_is_byte_faithful(self):
        """The replay command pins ``--family`` and ``--faults`` to the
        scenario's natural draws; pinning must not shift the RNG stream,
        or the replay would rebuild a different scenario."""
        for seed in range(6):
            natural = build_scenario(seed, quick=True)
            pinned = build_scenario(
                seed,
                quick=True,
                family=natural.name,
                with_faults=natural.fault_spec is not None,
            )
            assert pinned.describe() == natural.describe()
            assert pinned.fault_spec == natural.fault_spec
            assert pinned.initial_data == natural.initial_data


class TestShrink:
    def test_a_conforming_cell_is_left_whole(self):
        scenario = build_scenario(0, quick=True)

        def run(candidate, tracer=None):
            return run_cell(PROTOCOL_ENTRIES["serial"], candidate, "executor", True)

        cell = Cell(scenario, run, "")
        outcome = run(scenario)
        assert shrink_failing_scenario(cell, outcome) == (scenario, outcome)


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------


class TestFaultInjection:
    def test_certain_abort_and_stall(self):
        plan = FaultPlan(FaultSpec(abort_probability=1.0, seed=1))
        assert plan.intercept(7, "operation", "k0") == "abort"
        plan = FaultPlan(FaultSpec(stall_probability=1.0, seed=1))
        assert plan.intercept(7, "operation", "k0") == "stall"
        # operation-stage stall probability does not apply to commits
        assert plan.intercept(7, "commit", None) is None
        plan = FaultPlan(FaultSpec(commit_stall_probability=1.0, seed=1))
        assert plan.intercept(7, "commit", None) == "stall"

    def test_max_injections_caps_the_campaign(self):
        plan = FaultPlan(FaultSpec(abort_probability=1.0, max_injections=2, seed=3))
        actions = [plan.intercept(i, "operation", "k") for i in range(5)]
        assert actions == ["abort", "abort", None, None, None]
        assert plan.injections == 2

    def test_plans_replay_identically(self):
        spec = FaultSpec(
            abort_probability=0.3, stall_probability=0.3, seed=42
        )
        a, b = FaultPlan(spec), FaultPlan(spec)
        for i in range(50):
            assert a.intercept(i, "operation", "k") == b.intercept(i, "operation", "k")
        assert a.events == b.events

    def test_biased_keys_stall_more(self):
        spec = FaultSpec(
            stall_probability=0.1, biased_keys=frozenset(["hot"]),
            bias_multiplier=8.0, seed=5,
        )
        hot = FaultPlan(spec)
        cold = FaultPlan(spec)
        hot_stalls = sum(
            1 for _ in range(400) if hot.intercept(1, "operation", "hot") == "stall"
        )
        cold_stalls = sum(
            1 for _ in range(400) if cold.intercept(1, "operation", "cold") == "stall"
        )
        assert hot_stalls > 2 * cold_stalls

    @pytest.mark.parametrize("protocol_name", ["strict-2pl", "mvto", "occ-parallel"])
    def test_heavy_faults_leave_oracles_green(self, protocol_name):
        scenario = build_scenario(8, quick=True, family="skewed-rmw", with_faults=False)
        hostile = dataclasses.replace(
            scenario,
            fault_spec=FaultSpec(
                abort_probability=0.15,
                stall_probability=0.25,
                commit_stall_probability=0.25,
                seed=99,
            ),
        )
        for mode in ("executor", "simulator"):
            outcome = run_cell(PROTOCOL_ENTRIES[protocol_name], hostile, mode, quick=True)
            assert outcome.ok, outcome.violations
            assert outcome.fault_events  # the campaign really fired

    def test_plan_from_none_is_none(self):
        assert plan_from(None) is None


# ----------------------------------------------------------------------
# oracle agreement: conflict graph vs lifted MVSG (ISSUE 4 satellite)
# ----------------------------------------------------------------------


class TestOracleAgreement:
    @given(
        st.sampled_from(
            [StrictTwoPhaseLocking, TimestampOrdering, SerializationGraphTesting]
        ),
        small_batches(),
    )
    @settings(max_examples=25, deadline=None)
    def test_conflict_accepted_implies_lifted_mvsg_accepted(self, protocol_cls, batch):
        """Any history the conflict-graph checker accepts must also be
        accepted by the MVSG checker once lifted to single-version reads
        — a disagreement would mean one of the two oracles is wrong."""
        keys, specs, seed = batch
        protocol = protocol_cls(DataStore({k: 0 for k in keys}))
        executor = TransactionExecutor(
            protocol, max_attempts=500, interleaving="random", seed=seed
        )
        executor.run(specs)
        assert not protocol.committed_conflict_graph().has_cycle()
        assert one_copy_serializable(lift_single_version_history(protocol))

    def test_lifting_attributes_reads_to_actual_writers(self):
        """Deterministic spot-check of the lifting itself."""
        protocol = StrictTwoPhaseLocking(DataStore({"x": 0}))
        protocol.begin(1)
        protocol.write(1, "x", 10)
        protocol.commit(1)
        protocol.begin(2)
        assert protocol.read(2, "x").value == 10
        protocol.commit(2)
        history = lift_single_version_history(protocol)
        assert history.version_orders["x"] == (1,)
        observed = [r for r in history.reads if r.txn_id == 2]
        assert len(observed) == 1 and observed[0].writer == 1

    def test_write_skew_is_explained_and_rejected_by_both_judges(self):
        """A protocol that grants everything commits write skew: both
        single-version judges reject it, and the cycle is explained with
        one witness per edge read off the committed history."""

        class GrantAll(ConcurrencyControl):
            name = "grant-all"

            def on_read(self, txn_id, key):
                return Decision.grant()

            def on_write(self, txn_id, key, value):
                return Decision.grant()

        protocol = GrantAll(DataStore({"x": 0, "y": 0}))
        protocol.begin(1)
        protocol.begin(2)
        protocol.read(1, "x")
        protocol.read(2, "y")
        protocol.write(1, "y", 1)
        protocol.write(2, "x", 1)
        protocol.read(2, "x")  # read-your-writes: no edge
        assert protocol.commit(1).granted and protocol.commit(2).granted
        assert explain_conflict_cycle(protocol) == (
            "cycle: T1 -[rw on 'x']-> T2; T2 -[rw on 'y']-> T1"
        )
        history = lift_single_version_history(protocol)
        assert history.version_orders == {"y": (1,), "x": (2,)}
        assert [(r.txn_id, r.key, r.writer) for r in history.reads] == [
            (1, "x", None),
            (2, "y", None),
            (2, "x", 2),
        ]
        assert not one_copy_serializable(history)


# ----------------------------------------------------------------------
# mutation smoke: the harness must catch a seeded pivot-check bug
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def ssi_pivot_counterexample():
    return mutation_smoke(seeds=range(8), quick=True)


class TestMutationSmoke:
    def test_seeded_bug_is_detected_and_shrunk(self, ssi_pivot_counterexample):
        counterexample = ssi_pivot_counterexample
        assert counterexample is not None, (
            "breaking serializable-SI's pivot check went undetected"
        )
        assert len(counterexample.scenario.specs) < counterexample.original_spec_count
        assert counterexample.outcome.violations
        violated = {v.oracle for v in counterexample.outcome.violations}
        assert "mvsg" in violated

    def test_counterexample_report_names_the_cycle_and_replay(
        self, ssi_pivot_counterexample
    ):
        rendered = ssi_pivot_counterexample.render()
        assert "cycle" in rendered
        assert "shrunk to" in rendered
        # a mutated protocol is not in the registry, so its replay line
        # must go through --mutate (a bare --protocol would KeyError)
        assert "--mutate ssi-pivot" in ssi_pivot_counterexample.replay_command()
        assert f"--seed {ssi_pivot_counterexample.seed}" in rendered

    def test_mutation_replay_command_actually_runs(
        self, ssi_pivot_counterexample, capsys
    ):
        argv = ssi_pivot_counterexample.replay_command().split()[3:]
        assert harness_main(argv) == 0  # --mutate exits 0 on detection
        assert "detected" in capsys.readouterr().out

    def test_unbroken_serializable_si_passes_the_same_scenario(
        self, ssi_pivot_counterexample
    ):
        report = run_seed(
            ssi_pivot_counterexample.seed,
            protocols=["serializable-si"],
            quick=True,
            family="write-skew",
            with_faults=False,
        )
        assert report.ok


class TestParallelValidatorMutation:
    """occ-parallel without its validator-vs-validator check."""

    @pytest.fixture(scope="class")
    def counterexample(self):
        return mutation_smoke(
            seeds=range(8), quick=True, mutation="occ-parallel-validators"
        )

    def test_the_graph_catches_what_the_ticket_certificate_rejects(
        self, counterexample
    ):
        assert counterexample is not None, (
            "skipping occ-parallel's validator check went undetected"
        )
        violated = {v.oracle for v in counterexample.outcome.violations}
        assert "conflict-graph" in violated
        # the protocol's own verdict agreed with the graph: its ticket
        # order was rejected, not trusted
        assert "self-verdict" not in violated
        assert "--mutate occ-parallel-validators" in counterexample.replay_command()

    def test_unbroken_occ_parallel_passes_the_same_scenario(self, counterexample):
        report = run_seed(
            counterexample.seed,
            protocols=["occ-parallel"],
            modes=("executor",),
            quick=True,
            family="skewed-rmw",
            with_faults=False,
        )
        assert report.ok


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCLI:
    def test_parse_seeds(self):
        assert parse_seeds("7") == [7]
        assert parse_seeds("0..3") == [0, 1, 2, 3]
        assert parse_seeds("1,4,9") == [1, 4, 9]

    def test_parse_protocols(self):
        assert parse_protocols("all") == list(PROTOCOL_ENTRIES)
        assert parse_protocols("mvto, si") == ["mvto", "si"]

    def test_single_cell_invocation(self, capsys):
        code = harness_main(
            [
                "--seed", "0", "--protocol", "strict-2pl",
                "--mode", "executor", "--quick",
            ]
        )
        assert code == 0
        assert "all conforming" in capsys.readouterr().out

    def test_report_file_written(self, tmp_path, capsys):
        path = tmp_path / "report.txt"
        code = harness_main(
            [
                "--seed", "1", "--protocol", "mvto,si", "--mode", "simulator",
                "--quick", "--report", str(path),
            ]
        )
        assert code == 0
        assert "all conforming" in path.read_text()

    @pytest.mark.parametrize("flag", ["--wait-policy", "--scheduler"])
    def test_removed_flags_no_longer_parse(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            harness_main(["--seed", "0", flag, "event", "--quick"])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--dist", "--mutate", "ssi-pivot"], "--dist"),
            (["--mutate", "ssi-pivot", "--protocol", "mvto"], "--protocol"),
            (["--plan", "crash"], "--plan"),
            (["--replication", "on"], "--replication"),
            (["--dist", "--family", "write-skew"], "--family"),
            (["--dist", "--faults", "on"], "--faults"),
            (["--dist", "--mode", "executor"], "--mode"),
            (["--dist", "--protocol", "mvto"], "--protocol"),
            (["--mode", "bogus"], "--mode"),
            (["--protocol", "bogus"], "bogus"),
        ],
    )
    def test_flags_that_do_not_apply_are_usage_errors(self, argv, named, capsys):
        with pytest.raises(SystemExit) as exit_info:
            harness_main(argv + ["--seed", "0", "--quick"])
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err

    def test_mutate_mode_detects_and_exits_zero(self, capsys):
        code = harness_main(["--mutate", "ssi-pivot", "--seed", "0..7", "--quick"])
        assert code == 0
        assert "detected" in capsys.readouterr().out

    def test_mutate_report_writes_a_trace_the_obs_cli_reads(self, tmp_path, capsys):
        """The files CI uploads on a failing soak: the rendered
        counterexample and, next to it, the shrunk cell's engine trace."""
        path = tmp_path / "counterexample.txt"
        code = harness_main(
            ["--mutate", "ssi-pivot", "--seed", "0..7", "--quick", "--report", str(path)]
        )
        assert code == 0
        assert "replay: python -m repro.harness" in path.read_text()
        trace = tmp_path / "counterexample.txt.trace.jsonl"
        assert trace.exists()
        capsys.readouterr()
        assert obs_main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "commits=" in out and "abort taxonomy" in out

    def test_dist_report_file_written(self, tmp_path, capsys):
        path = tmp_path / "dist.txt"
        code = harness_main(
            [
                "--dist", "--seed", "0", "--quick", "--plan", "none",
                "--replication", "off", "--report", str(path),
            ]
        )
        assert code == 0
        assert path.read_text().startswith("all conforming: ")
        assert "all conforming" in capsys.readouterr().out
