"""The distributed chaos harness: scenarios, oracles, cells, CLI.

Everything above :mod:`repro.dist` itself — the seeded
cross-shard-transfer scenario builder, the five distributed oracles,
the dist cells of the shared conformance runner (run twice, judged,
shrunk and traced like every cell), and the ``--dist`` CLI entry the
chaos-soak CI job drives.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.dist.recovery import CRASH_POINTS
from repro.dist.replication import REPL_CRASH_POINTS
from repro.harness import __main__ as harness_cli, runner
from repro.harness.__main__ import main as harness_main
from repro.harness.oracles import evaluate_dist_run
from repro.harness.runner import run_dist, run_dist_seed
from repro.harness.scenarios import DIST_PLANS, build_dist_scenario
from repro.obs.__main__ import main as obs_main


class TestDistScenarioBuilder:
    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError, match="plan"):
            build_dist_scenario(0, plan="gamma-rays")

    @pytest.mark.parametrize("plan", DIST_PLANS)
    def test_rebuild_is_identical(self, plan):
        a = build_dist_scenario(5, plan=plan, quick=True)
        b = build_dist_scenario(5, plan=plan, quick=True)
        assert a.initial_data == b.initial_data
        assert [spec.name for spec in a.specs] == [spec.name for spec in b.specs]
        assert a.network_faults == b.network_faults
        assert a.crash_specs == b.crash_specs

    def test_plans_carry_their_chaos(self):
        none = build_dist_scenario(2, plan="none", quick=True)
        assert none.network_faults is None and none.crash_specs == ()
        loss = build_dist_scenario(2, plan="loss", quick=True)
        assert loss.network_faults is not None
        assert loss.network_faults.loss_probability > 0
        crash = build_dist_scenario(2, plan="crash", quick=True)
        assert crash.crash_specs
        for spec in crash.crash_specs:
            assert spec.transition in CRASH_POINTS
        partition = build_dist_scenario(2, plan="partition", quick=True)
        assert partition.network_faults is not None
        assert partition.network_faults.partitions

    def test_replicated_plans_target_replica_processes(self):
        # with a replica group per shard, the chaos retargets individual
        # replica processes ("shardN.rM") instead of whole shards
        crash = build_dist_scenario(2, plan="crash", quick=True, replicas=3)
        assert crash.replicas == 3
        assert crash.replica_crashes
        for spec in crash.replica_crashes:
            assert spec.transition in REPL_CRASH_POINTS
        partition = build_dist_scenario(2, plan="partition", quick=True, replicas=3)
        [window] = partition.network_faults.partitions
        assert all(".r" in name for name in window.isolated)
        # the replica axis must not perturb the base scenario: same seed,
        # same workload, with and without replication
        flat = build_dist_scenario(2, plan="crash", quick=True, replicas=1)
        assert flat.initial_data == crash.initial_data
        assert [s.name for s in flat.specs] == [s.name for s in crash.specs]
        assert "replicas=3" in crash.describe()

    def test_seeds_vary_the_topology(self):
        shapes = {
            build_dist_scenario(seed, quick=False).num_shards for seed in range(12)
        }
        assert len(shapes) > 1

    def test_quick_shrinks_the_batch(self):
        quick = build_dist_scenario(1, quick=True)
        full = build_dist_scenario(1, quick=False)
        assert len(quick.specs) <= len(full.specs)

    def test_specs_actually_cross_shards(self):
        scenario = build_dist_scenario(3, quick=True)
        prefixes_per_spec = [
            {op.key.split(":", 1)[0] for op in spec.operations}
            for spec in scenario.specs
        ]
        assert any(len(prefixes) > 1 for prefixes in prefixes_per_spec)

    def test_describe_names_the_chaos(self):
        text = build_dist_scenario(0, plan="crash", quick=True).describe()
        assert "plan=crash" in text and "CrashSpec" in text


class TestDistOracles:
    def _clean_cell(self):
        from repro.harness.runner import _run_dist_scenario

        scenario = build_dist_scenario(0, plan="none", quick=True)
        return scenario, _run_dist_scenario(scenario)

    def test_clean_run_passes_all_five(self):
        scenario, report = self._clean_cell()
        verdicts = evaluate_dist_run(scenario, report)
        assert [v.oracle for v in verdicts] == [
            "dist-conservation",
            "dist-atomicity",
            "dist-replay",
            "dist-locks",
            "dist-taxonomy",
        ]
        assert all(v.ok and v.required for v in verdicts)

    def test_conservation_catches_minted_money(self):
        scenario, report = self._clean_cell()
        key = next(iter(report.final_snapshot))
        report.final_snapshot[key] += 1
        verdicts = {v.oracle: v for v in evaluate_dist_run(scenario, report)}
        assert not verdicts["dist-conservation"].ok
        assert "sum(balances)" in verdicts["dist-conservation"].detail

    def test_replay_catches_divergent_state(self):
        # conserve the total but swap two balances: conservation stays
        # green while the log replay no longer reproduces the snapshot
        scenario, report = self._clean_cell()
        keys = sorted(report.final_snapshot)
        a, b = keys[0], keys[-1]
        report.final_snapshot[a], report.final_snapshot[b] = (
            report.final_snapshot[b] + 1,
            report.final_snapshot[a] - 1,
        )
        verdicts = {v.oracle: v for v in evaluate_dist_run(scenario, report)}
        assert verdicts["dist-conservation"].ok
        assert not verdicts["dist-replay"].ok

    def test_atomicity_catches_a_partially_applied_commit(self):
        scenario, report = self._clean_cell()
        committed_ids = [txn_id for txn_id, _writes in report.committed]
        assert committed_ids
        victim = committed_ids[0]
        # erase the apply record on one shard that holds the txn
        for participant in report.participants.values():
            if victim in participant.state.applied_writes:
                del participant.state.applied_writes[victim]
                break
        verdicts = {v.oracle: v for v in evaluate_dist_run(scenario, report)}
        assert not verdicts["dist-atomicity"].ok
        assert "never applied" in verdicts["dist-atomicity"].detail

    def test_locks_catch_an_orphan(self):
        scenario, report = self._clean_cell()
        participant = next(iter(report.participants.values()))
        participant.state.locks["s0:phantom"] = 999
        verdicts = {v.oracle: v for v in evaluate_dist_run(scenario, report)}
        assert not verdicts["dist-locks"].ok

    def test_taxonomy_catches_an_uncoded_abort(self):
        scenario, report = self._clean_cell()
        from repro.dist.engine import AttemptRecord

        report.attempts[0].append(
            AttemptRecord(0, 9, None, "abort", "mystery-code", "???")
        )
        verdicts = {v.oracle: v for v in evaluate_dist_run(scenario, report)}
        assert not verdicts["dist-taxonomy"].ok
        assert "mystery-code" in verdicts["dist-taxonomy"].detail


class TestReplicationOracles:
    def _replicated_cell(self, plan="none"):
        from repro.harness.runner import _run_dist_scenario

        scenario = build_dist_scenario(0, plan=plan, quick=True, replicas=3)
        return scenario, _run_dist_scenario(scenario)

    def test_replicated_run_passes_all_nine(self):
        scenario, report = self._replicated_cell()
        verdicts = evaluate_dist_run(scenario, report)
        assert [v.oracle for v in verdicts] == [
            "dist-conservation",
            "dist-atomicity",
            "dist-replay",
            "dist-locks",
            "dist-taxonomy",
            "repl-log-safety",
            "repl-lease-uniqueness",
            "repl-state-agreement",
            "repl-quorum-liveness",
        ]
        assert all(v.ok and v.required for v in verdicts)

    def test_flat_run_skips_the_replication_oracles(self):
        from repro.harness.runner import _run_dist_scenario

        scenario = build_dist_scenario(0, plan="none", quick=True)
        report = _run_dist_scenario(scenario)
        oracle_names = {v.oracle for v in evaluate_dist_run(scenario, report)}
        assert not any(name.startswith("repl-") for name in oracle_names)

    def test_log_safety_catches_a_diverged_committed_slot(self):
        scenario, report = self._replicated_cell()
        group = report.groups[sorted(report.groups)[0]]
        victim = group.replicas[1]
        assert victim.commit_index > 0
        term, _command = victim.log[0]
        victim.log[0] = (term, ("tampered",))
        verdicts = {v.oracle: v for v in evaluate_dist_run(scenario, report)}
        assert not verdicts["repl-log-safety"].ok
        assert "disagree" in verdicts["repl-log-safety"].detail

    def test_lease_uniqueness_catches_two_leaders_in_one_term(self):
        scenario, report = self._replicated_cell()
        group = report.groups[sorted(report.groups)[0]]
        stinted = [r for r in group.replicas if r.leader_stints]
        term = stinted[0].leader_stints[0]["term"]
        impostor = next(r for r in group.replicas if r is not stinted[0])
        impostor.leader_stints.append({"term": term, "replica": impostor.name})
        verdicts = {v.oracle: v for v in evaluate_dist_run(scenario, report)}
        assert not verdicts["repl-lease-uniqueness"].ok

    def test_lease_uniqueness_catches_a_double_vote(self):
        scenario, report = self._replicated_cell()
        group = report.groups[sorted(report.groups)[0]]
        voter = group.replicas[0]
        voter.vote_grants.append((1, "shard0.r1"))
        voter.vote_grants.append((1, "shard0.r2"))
        verdicts = {v.oracle: v for v in evaluate_dist_run(scenario, report)}
        assert not verdicts["repl-lease-uniqueness"].ok
        assert "granted" in verdicts["repl-lease-uniqueness"].detail

    def test_state_agreement_catches_a_tampered_store(self):
        scenario, report = self._replicated_cell()
        group = report.groups[sorted(report.groups)[0]]
        authority = group.authoritative
        store = authority.state.store
        key = sorted(store.snapshot())[0]
        store.write(key, store.read(key) + 1, writer=None)
        verdicts = {v.oracle: v for v in evaluate_dist_run(scenario, report)}
        assert not verdicts["repl-state-agreement"].ok

    def test_quorum_liveness_catches_a_false_alarm(self):
        # a repl-no-quorum abort on the faultless plan means the group
        # cried quorum loss with no fault injected
        from repro.dist.engine import AttemptRecord
        from repro.engine.reasons import ABORT_REPL_NO_QUORUM

        scenario, report = self._replicated_cell(plan="none")
        report.attempts[0].append(
            AttemptRecord(0, 9, None, "abort", ABORT_REPL_NO_QUORUM, "shed")
        )
        verdicts = {v.oracle: v for v in evaluate_dist_run(scenario, report)}
        assert not verdicts["repl-quorum-liveness"].ok


class TestDistCells:
    @pytest.mark.parametrize("plan", DIST_PLANS)
    def test_quick_cells_conform(self, plan):
        report = run_dist_seed(0, plans=(plan,), quick=True, replication="off")
        [outcome] = report.outcomes
        assert outcome.ok, outcome.violations
        assert outcome.replay_ok
        assert outcome.committed > 0

    def test_crash_cells_actually_crash(self):
        outcome = run_dist(build_dist_scenario(0, plan="crash", quick=True))
        assert any(
            event.startswith("dist.coordinator_crashes=")
            for event in outcome.fault_events
        )

    def test_violations_property_filters_required_failures(self):
        outcome = run_dist(build_dist_scenario(1, plan="none", quick=True))
        assert outcome.violations == ()
        broken = dataclasses.replace(outcome, replay_ok=False)
        assert not broken.ok and broken.violations == ()

    def test_seed_sweep_reports_and_summaries(self):
        # the default matrix is plans × {flat, replicated}
        for seed in (0, 1):
            report = run_dist_seed(seed, quick=True)
            assert report.ok
            assert [outcome.cell for outcome in report.outcomes] == [
                f"{plan}/r{replicas}" for plan in DIST_PLANS for replicas in (1, 3)
            ]
            assert report.summary() == f"seed {seed} [dist] 8 cells: ok"

    def test_plan_filter_restricts_the_matrix(self):
        report = run_dist_seed(3, plans=("loss",), quick=True)
        assert [outcome.cell for outcome in report.outcomes] == ["loss/r1", "loss/r3"]

    def test_replication_axis_restricts_the_matrix(self):
        off = run_dist_seed(3, plans=("none",), quick=True, replication="off")
        assert [outcome.cell for outcome in off.outcomes] == ["none/r1"]
        on = run_dist_seed(3, plans=("none",), quick=True, replication="on")
        assert [outcome.cell for outcome in on.outcomes] == ["none/r3"]
        assert on.ok
        with pytest.raises(ValueError, match="replication"):
            run_dist_seed(3, replication="sometimes")

    def test_replicated_cells_conform_under_every_plan(self):
        report = run_dist_seed(0, quick=True, replication="on")
        for outcome in report.outcomes:
            assert outcome.ok, (outcome.cell, outcome.violations)
            assert outcome.replay_ok
            assert outcome.committed > 0

    def test_full_size_crash_slice_reaches_quiescence(self):
        # the size CI never ran: seed 4 / crash / 3 replicas spun for
        # 2,000 chunks with ``unsettled=[8] in_flight=1`` because a dead
        # coordinator admitted a client retry (fixed in submit())
        reports = [run_dist_seed(seed, plans=("crash",)) for seed in range(20)]
        assert [report.summary() for report in reports if not report.ok] == []
        assert sum(len(report.outcomes) for report in reports) == 20 * 2

    def test_replay_mismatch_is_reported_unshrunk(self, monkeypatch):
        # a rerun digest that differs is a nondeterminism bug: the cell
        # fails on its own, and shrinking (which re-runs it) is skipped
        runs = itertools.count(1)
        real_run = runner._run_dist_scenario

        def counted_run(scenario, tracer=None):
            report = real_run(scenario, tracer)
            report.digest = lambda run=next(runs): f"run-{run}"
            return report

        monkeypatch.setattr(runner, "_run_dist_scenario", counted_run)
        report = run_dist_seed(4, plans=("crash",), quick=True, replication="off")
        [outcome] = report.outcomes
        assert not outcome.replay_ok and outcome.violations == ()
        assert next(runs) == 4  # two runs and the traced one: no shrink
        counterexample = report.counterexample
        assert len(counterexample.scenario.specs) == counterexample.original_spec_count
        assert counterexample.trace_jsonl
        text = counterexample.render()
        assert "replay mismatch" in text and "not shrunk" in text
        assert text.endswith(
            "replay: python -m repro.harness --dist --seed 4 --plan crash "
            "--replication off --quick"
        )
        assert report.summary().endswith("1 violating: crash/r1 REPLAY-MISMATCH")


@pytest.fixture
def lossy_commits(monkeypatch):
    """A seeded dist bug: a shard drops committed writes to keys ending in 1."""
    from repro.dist.recovery import COMMIT
    from repro.dist.tpc import ParticipantState

    decide = ParticipantState.decide

    def lossy_decide(self, txn_id, outcome):
        record = self.prepared.get(txn_id)
        if record is not None and outcome == COMMIT:
            reads, writes = record
            kept = {key: value for key, value in writes.items() if not key.endswith("1")}
            self.prepared[txn_id] = (reads, kept)
        decide(self, txn_id, outcome)

    monkeypatch.setattr(ParticipantState, "decide", lossy_decide)


class TestDistCounterexamples:
    def test_a_seeded_bug_is_shrunk_and_traced(self, lossy_commits, tmp_path, capsys):
        report = run_dist_seed(0, plans=("none",), replication="off")
        counterexample = report.counterexample
        assert len(counterexample.scenario.specs) < counterexample.original_spec_count
        violated = {verdict.oracle for verdict in counterexample.outcome.violations}
        assert "dist-conservation" in violated
        assert counterexample.trace_jsonl
        path = tmp_path / "dist-counterexample.txt"
        code = harness_main(
            ["--dist", "--seed", "0", "--plan", "none", "--replication", "off",
             "--report", str(path)]
        )
        assert code == 1
        assert path.read_text() == counterexample.render() + "\n"
        trace = tmp_path / "dist-counterexample.txt.trace.jsonl"
        assert trace.read_text() == counterexample.trace_jsonl
        capsys.readouterr()
        assert obs_main(["report", str(trace)]) == 0
        assert "events=" in capsys.readouterr().out

    def test_the_quick_replay_line_rebuilds_the_failing_cell(
        self, lossy_commits, tmp_path
    ):
        report = run_dist_seed(4, plans=("crash",), quick=True, replication="off")
        counterexample = report.counterexample
        command = counterexample.replay_command()
        assert command.endswith(" --quick")
        path = tmp_path / "replayed.txt"
        argv = command.split()[3:] + ["--report", str(path)]
        assert harness_main(argv) == 1
        replayed = path.read_text()
        assert f"digest={counterexample.outcome.digest[:16]}" in replayed
        assert replayed == counterexample.render() + "\n"


class TestDistCLI:
    def test_dist_sweep_invocation(self, capsys):
        code = harness_main(["--dist", "--seed", "0..1", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 seed(s), 16 cell(s): all conforming" in out
        assert "seed 0 [dist]" in out and "seed 1 [dist]" in out

    def test_plan_pin_and_report_file(self, tmp_path, capsys):
        path = tmp_path / "dist-report.txt"
        code = harness_main(
            ["--dist", "--seed", "2", "--plan", "crash", "--quick",
             "--report", str(path)]
        )
        assert code == 0
        assert path.read_text() == "all conforming: seed 2 [dist] 2 cells: ok\n"

    def test_replication_flag_pins_the_axis(self, monkeypatch, capsys):
        calls = []

        def spy(seed, **kwargs):
            calls.append(kwargs)
            return run_dist_seed(seed, **kwargs)

        monkeypatch.setattr(harness_cli, "run_dist_seed", spy)
        code = harness_main(
            ["--dist", "--seed", "0", "--plan", "partition", "--quick",
             "--replication", "on"]
        )
        assert code == 0
        assert calls == [{"plans": ("partition",), "quick": True, "replication": "on"}]
        assert "1 seed(s), 1 cell(s): all conforming" in capsys.readouterr().out

    def test_replication_flag_rejects_nonsense(self):
        with pytest.raises(SystemExit):
            harness_main(["--dist", "--replication", "sometimes"])
