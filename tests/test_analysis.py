"""Tests for the analysis package: hierarchy, counting, locking comparison, tables."""

import pytest

from repro.analysis.counting import (
    delay_free_probability,
    delay_statistics_table,
    expected_displacement,
    scheduler_delay_statistics,
)
from repro.analysis.hierarchy import (
    classify_all_schedules,
    fixpoint_hierarchy,
    hierarchy_table,
    scheduler_fixpoint_sizes,
)
from repro.analysis.locking_analysis import (
    analyse_policy,
    compare_locking_policies,
    locking_report_table,
    policy_dominates,
)
from repro.analysis.reporting import format_table
from repro.core.instance import SystemInstance
from repro.core.schedules import count_schedules
from repro.core.schedulers import (
    ConflictSerializationScheduler,
    MaximumInformationScheduler,
    SerialScheduler,
    SerializationScheduler,
    WeakSerializationScheduler,
)
from repro.core.semantics import Interpretation
from repro.core.transactions import make_system
from repro.locking.two_phase import NoLockingPolicy, TwoPhaseLockingPolicy, TwoPhasePrimePolicy


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = format_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert set(lines[1].replace("  ", "")) == {"-"}

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestHierarchy:
    def test_figure1_classification_counts(self, figure1):
        counts = classify_all_schedules(figure1)
        assert counts.total == 3
        assert counts.serial == 2
        assert counts.herbrand_serializable == 2
        assert counts.weakly_serializable == 3
        assert counts.correct == 3
        assert counts.inclusions_hold()

    def test_theorem2_instance_counts(self, two_counter_instance):
        counts = classify_all_schedules(two_counter_instance)
        assert counts.serial == 2
        assert counts.correct < counts.total
        assert counts.inclusions_hold()

    def test_fixpoint_hierarchy_is_monotone(self, figure1):
        rows = fixpoint_hierarchy(figure1)
        sizes = [row.fixpoint_size for row in rows]
        assert sizes == sorted(sizes)
        assert all(row.total == count_schedules(figure1.system) for row in rows)

    def test_hierarchy_table_renders_all_levels(self, figure1):
        table = hierarchy_table(figure1)
        for level in ("minimum", "syntactic", "semantic", "maximum"):
            assert level in table

    def test_scheduler_fixpoint_sizes(self, figure1):
        rows = scheduler_fixpoint_sizes(
            [SerialScheduler(figure1), WeakSerializationScheduler(figure1)]
        )
        assert rows[0].fixpoint_size <= rows[1].fixpoint_size
        assert 0 < rows[0].fraction <= 1


class TestCounting:
    def test_delay_free_probability_matches_ratio(self, figure1):
        scheduler = SerialScheduler(figure1)
        assert delay_free_probability(scheduler) == pytest.approx(2 / 3)

    def test_expected_displacement_zero_for_full_fixpoint(self, figure1):
        weak = WeakSerializationScheduler(figure1)
        assert expected_displacement(weak) == pytest.approx(0.0)

    def test_expected_displacement_positive_for_serial(self, figure1):
        serial = SerialScheduler(figure1)
        assert expected_displacement(serial) > 0

    def test_sampled_displacement_close_to_exact(self, banking):
        serial = SerialScheduler(banking)
        exact = expected_displacement(serial)
        sampled = expected_displacement(serial, sample_size=300, seed=1)
        assert abs(exact - sampled) < 2.0

    def test_statistics_and_table(self, figure1):
        schedulers = [SerialScheduler(figure1), SerializationScheduler(figure1)]
        stats = scheduler_delay_statistics(schedulers)
        assert [s.name for s in stats] == ["SerialScheduler", "SerializationScheduler"]
        table = delay_statistics_table(schedulers)
        assert "P(no delay)" in table and "SerialScheduler" in table

    def test_delay_free_probability_grows_with_information(self, figure1):
        schedulers = [
            SerialScheduler(figure1),
            SerializationScheduler(figure1),
            WeakSerializationScheduler(figure1),
            MaximumInformationScheduler(figure1),
        ]
        probabilities = [
            s.delay_free_probability for s in scheduler_delay_statistics(schedulers)
        ]
        assert probabilities == sorted(probabilities)

    def test_delay_statistics_on_the_ring_system(self):
        """Format (2, 2, 2), |H| = 90: displacement is sampled, not enumerated."""
        system = make_system(["x", "y"], ["y", "z"], ["z", "x"], name="ring")
        instance = SystemInstance(
            system=system,
            interpretation=Interpretation(
                system,
                {ref: (lambda *values: values[-1] + 1) for ref in system.step_refs()},
                {"x": 0, "y": 0, "z": 0},
            ),
        )
        stats = scheduler_delay_statistics(
            [
                SerialScheduler(instance),
                ConflictSerializationScheduler(instance),
                SerializationScheduler(instance),
            ],
            200,
            7,
        )
        assert stats[0].fixpoint_size <= stats[-1].fixpoint_size
        assert stats[0].delay_free_probability < 1.0


class TestLockingAnalysis:
    @pytest.fixture
    def witness(self):
        return make_system(["x", "y", "z"], ["x", "y"], name="witness")

    def test_analyse_policy_reports_consistent_counts(self, witness):
        report = analyse_policy(TwoPhaseLockingPolicy(), witness)
        assert report.total_schedules == count_schedules(witness)
        assert 0 < report.projected_schedules <= report.total_schedules
        assert report.lock_feasible_schedules >= report.projected_schedules
        assert report.all_projected_serializable
        assert report.two_phase and report.well_nested
        assert 0 < report.performance_fraction <= 1

    def test_no_locking_flagged_as_incorrect(self, witness):
        report = analyse_policy(NoLockingPolicy(), witness)
        assert not report.all_projected_serializable
        assert not report.can_deadlock

    def test_policy_dominates_detects_2pl_prime_gain(self, witness):
        assert policy_dominates(TwoPhasePrimePolicy("x"), TwoPhaseLockingPolicy(), witness)
        assert not policy_dominates(TwoPhaseLockingPolicy(), TwoPhasePrimePolicy("x"), witness)

    def test_comparison_table_lists_all_policies(self, witness):
        reports = compare_locking_policies(
            [TwoPhaseLockingPolicy(), TwoPhasePrimePolicy("x")], witness
        )
        table = locking_report_table(reports)
        assert "2PL" in table and "2PL'[x]" in table
