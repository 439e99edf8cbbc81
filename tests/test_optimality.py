"""Tests for the optimality theory: Theorems 1-4 and the adversary constructions."""

import pytest

from repro.core.examples import figure1_system
from repro.core.information import (
    MaximumInformation,
    MinimumInformation,
    SemanticInformation,
    SyntacticInformation,
    STANDARD_LEVELS,
    level_hierarchy,
)
from repro.core.optimality import (
    certify,
    optimal_fixpoint_set,
    herbrand_concrete_interpretation,
    is_optimal,
    minimum_information_adversary,
    performance_partial_order,
    performs_better,
    reachable_herbrand_states,
    syntactic_information_adversary,
    theorem1_upper_bound,
    violates_theorem1,
)
from repro.core.schedules import all_schedules, all_serial_schedules, is_serial, schedule_from_pairs
from repro.core.schedulers import (
    ConflictSerializationScheduler,
    FixedSetScheduler,
    MaximumInformationScheduler,
    SerialScheduler,
    SerializationScheduler,
    WeakSerializationScheduler,
)
from repro.core.serializability import is_serializable
from repro.core.herbrand import herbrand_final_state


class TestTheorem1:
    """P ⊆ ∩_{T' ∈ I} C(T') for every correct scheduler at level I."""

    def test_bound_is_nested_across_levels(self, figure1):
        sets = [
            {tuple(h) for h in theorem1_upper_bound(figure1, level)}
            for level in STANDARD_LEVELS
        ]
        for smaller, larger in zip(sets, sets[1:]):
            assert smaller <= larger

    def test_every_optimal_scheduler_respects_its_bound(self, figure1):
        schedulers = [
            SerialScheduler(figure1),
            SerializationScheduler(figure1),
            WeakSerializationScheduler(figure1),
            MaximumInformationScheduler(figure1),
        ]
        for scheduler in schedulers:
            assert violates_theorem1(scheduler, scheduler.information_level) == []

    def test_overclaiming_scheduler_violates_bound_and_is_incorrect(
        self, two_counter_instance
    ):
        # A scheduler that passes *every* history claims more than the
        # minimum-information bound allows; Theorem 1 says it cannot be correct.
        inst = two_counter_instance
        greedy = FixedSetScheduler(inst, all_schedules(inst.system))
        assert violates_theorem1(greedy, MinimumInformation())
        assert not greedy.is_correct()

    def test_level_hierarchy_fixpoints_are_nested(self, figure1):
        sizes = [len(fp) for _, fp in level_hierarchy(figure1)]
        assert sizes == sorted(sizes)


class TestTheorem2:
    """The serial scheduler is optimal at minimum information."""

    def test_serial_scheduler_is_correct_and_optimal(self, figure1):
        scheduler = SerialScheduler(figure1)
        report = certify(scheduler)
        assert report.is_correct
        assert report.is_optimal
        assert report.level_name == "minimum"

    def test_serial_scheduler_is_optimal_on_the_counter_instance(
        self, two_counter_instance
    ):
        # the x+1 / 2x / x-1 instance: any fixpoint set larger than the
        # serial schedules admits an incorrect history
        assert certify(SerialScheduler(two_counter_instance)).is_optimal

    def test_fixpoint_set_is_exactly_the_serial_schedules(self, banking):
        scheduler = SerialScheduler(banking)
        assert set(scheduler.fixpoint_set()) == set(
            all_serial_schedules(banking.system)
        )

    def test_adversary_exists_for_every_non_serial_history(self, figure1):
        fmt = figure1.system.format
        for history in all_schedules(fmt):
            if is_serial(fmt, history):
                continue
            adversary = minimum_information_adversary(fmt, history)
            # same format (indistinguishable at minimum information) ...
            assert adversary.system.format == fmt
            # ... every transaction individually correct (construction checks it) ...
            # ... and the history is incorrect for the adversary.
            assert not adversary.is_correct_schedule(history)

    def test_adversary_rejects_serial_histories(self):
        with pytest.raises(ValueError):
            minimum_information_adversary((2, 1), schedule_from_pairs([(1, 1), (1, 2), (2, 1)]))

    def test_adversary_uses_plus_double_minus_construction(self, figure1_h):
        adversary = minimum_information_adversary((2, 1), figure1_h)
        final = adversary.interpretation
        # executing the history from x=0 must yield an inconsistent state (x != 0)
        from repro.core.semantics import final_globals

        result = final_globals(adversary.system, final, figure1_h)
        assert result["x"] != 0


class TestTheorem3:
    """The serialization scheduler is optimal at complete syntactic information."""

    def test_serialization_scheduler_is_correct_and_optimal(self, figure1):
        scheduler = SerializationScheduler(figure1)
        report = certify(scheduler)
        assert report.is_correct
        assert report.is_optimal

    def test_adversary_for_non_serializable_history(self, figure1, figure1_h):
        adversary = syntactic_information_adversary(figure1.system, figure1_h)
        # same syntax ...
        assert adversary.system.same_syntax(figure1.system)
        # ... and the history violates the reachable-state integrity constraint.
        assert not adversary.is_correct_schedule(figure1_h)

    def test_adversary_accepts_serializable_histories(self, figure1):
        serial = all_serial_schedules(figure1.system)[0]
        with pytest.raises(ValueError):
            syntactic_information_adversary(figure1.system, serial)

    def test_herbrand_interpretation_matches_symbolic_execution(self, figure1):
        interp = herbrand_concrete_interpretation(figure1.system)
        from repro.core.semantics import final_globals

        for schedule in all_schedules(figure1.system):
            concrete = final_globals(figure1.system, interp, schedule)
            symbolic = herbrand_final_state(figure1.system, schedule)
            assert concrete == symbolic

    def test_reachable_states_include_all_serial_permutations(self, figure1):
        interp = herbrand_concrete_interpretation(figure1.system)
        reachable = reachable_herbrand_states(figure1.system, interp)
        for serial in all_serial_schedules(figure1.system):
            state = tuple(sorted(herbrand_final_state(figure1.system, serial).items()))
            assert state in reachable

    def test_conflict_scheduler_correct_but_not_better_than_serialization(self, figure1):
        conflict = ConflictSerializationScheduler(figure1)
        serialization = SerializationScheduler(figure1)
        assert conflict.is_correct()
        assert not performs_better(conflict, serialization)


class TestTheorem4:
    """The weak-serialization scheduler is optimal without integrity constraints."""

    def test_weak_scheduler_correct_and_optimal(self, figure1):
        scheduler = WeakSerializationScheduler(figure1)
        report = certify(scheduler)
        assert report.is_correct
        assert report.is_optimal
        assert report.level_name == "semantic"

    def test_weak_scheduler_accepts_figure1_history(self, figure1, figure1_h):
        scheduler = WeakSerializationScheduler(figure1)
        assert scheduler.accepts(figure1_h)
        assert scheduler.schedule(figure1_h) == figure1_h

    def test_serialization_scheduler_rejects_figure1_history(self, figure1, figure1_h):
        scheduler = SerializationScheduler(figure1)
        assert not scheduler.accepts(figure1_h)
        produced = scheduler.schedule(figure1_h)
        assert produced != figure1_h
        assert is_serializable(figure1.system, produced)

    def test_weak_strictly_better_than_serialization_on_figure1(self, figure1):
        weak = WeakSerializationScheduler(figure1)
        serialization = SerializationScheduler(figure1)
        assert performs_better(weak, serialization)


class TestPerformancePartialOrder:
    def test_partial_order_matches_paper_hierarchy(self, figure1):
        serial = SerialScheduler(figure1)
        serialization = SerializationScheduler(figure1)
        weak = WeakSerializationScheduler(figure1)
        order = performance_partial_order([serial, serialization, weak])
        assert order[("WeakSerializationScheduler", "SerialScheduler")] == "better"
        assert order[("SerialScheduler", "WeakSerializationScheduler")] == "worse"
        # on Figure 1 serial and serialization coincide (both = the 2 serial schedules)
        assert order[("SerializationScheduler", "SerialScheduler")] == "equal"

    def test_every_level_certifies_optimal_on_figure1(self, figure1):
        for cls in (
            SerialScheduler,
            SerializationScheduler,
            WeakSerializationScheduler,
            MaximumInformationScheduler,
        ):
            assert certify(cls(figure1)).is_optimal, cls.__name__

    def test_certify_reports_sizes(self, figure1):
        report = certify(WeakSerializationScheduler(figure1))
        assert report.fixpoint_size == report.bound_size == 3
        assert "OPTIMAL" in report.summary()

    def test_is_optimal_helper(self, figure1):
        assert is_optimal(SerialScheduler(figure1))
        # the conflict scheduler is correct but sub-optimal once semantic
        # information is available (its fixpoint misses the Figure 1 history)
        assert not is_optimal(
            ConflictSerializationScheduler(figure1), SemanticInformation()
        )


class TestInformationLevels:
    """Section 3.3: what each level projects, which instances it cannot
    tell apart, and the refinement order over the four levels."""

    def test_projections_name_what_each_level_knows(self, figure1):
        syntax = SyntacticInformation().projection(figure1)
        assert MinimumInformation().projection(figure1) == figure1.system.format
        assert len(syntax) == len(figure1.system.transactions)
        assert SemanticInformation().projection(figure1)[0] == syntax
        assert MaximumInformation().projection(figure1) is figure1

    def test_a_second_interpretation_is_visible_from_the_semantic_level_up(
        self, figure1
    ):
        # same syntax, a separately built interpretation
        twin = figure1_system()
        seen = [level.indistinguishable(figure1, twin) for level in STANDARD_LEVELS]
        assert seen == [True, True, False, False]
        assert all(level.indistinguishable(figure1, figure1) for level in STANDARD_LEVELS)

    def test_refinement_follows_the_hierarchy(self):
        for rank, level in enumerate(STANDARD_LEVELS):
            for other_rank, other in enumerate(STANDARD_LEVELS):
                assert level.refines(other) is (rank >= other_rank)

    def test_levels_compare_by_kind_and_parameters(self):
        assert MinimumInformation() == MinimumInformation()
        assert MinimumInformation() != MaximumInformation()
        assert hash(SyntacticInformation()) == hash(SyntacticInformation())
        assert SemanticInformation(2) == SemanticInformation(2)
        assert SemanticInformation(2) != SemanticInformation(3)
        assert len({SemanticInformation(2), SemanticInformation(2)}) == 1

    def test_optimal_fixpoint_set_is_the_levels_characterisation(self, figure1):
        assert set(optimal_fixpoint_set(figure1, MinimumInformation())) == set(
            all_serial_schedules(figure1.system)
        )
        assert set(optimal_fixpoint_set(figure1, MaximumInformation())) == set(
            figure1.correct_schedules()
        )
