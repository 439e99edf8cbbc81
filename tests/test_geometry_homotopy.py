"""Experiment E8: serializability as homotopy to a serial schedule (Figure 4)."""

import pytest

from repro.core.schedules import all_schedules, is_serial
from repro.core.serializability import is_serializable
from repro.core.transactions import make_system
from repro.locking.geometry import (
    GeometryError,
    homotopic_to_serial,
    progress_space,
    schedules_homotopic_to_serial,
)
from repro.locking.lock_manager import lock_feasible_schedules
from repro.locking.policies import (
    AccessAction,
    LockAction,
    LockedTransaction,
    LockedTransactionSystem,
    UnlockAction,
)
from repro.locking.two_phase import (
    NoLockingPolicy,
    TwoPhaseLockingPolicy,
    TwoPhasePrimePolicy,
)


class TestHomotopyBasics:
    def test_serial_schedules_are_trivially_homotopic(self, counter_pair):
        locked = TwoPhaseLockingPolicy()(counter_pair)
        for schedule in lock_feasible_schedules(locked):
            if is_serial(locked.format, schedule):
                assert homotopic_to_serial(locked, schedule)

    def test_infeasible_schedule_rejected(self, counter_pair):
        locked = TwoPhaseLockingPolicy()(counter_pair)
        feasible = set(lock_feasible_schedules(locked))
        infeasible = next(
            s for s in all_schedules(locked.format) if s not in feasible
        )
        with pytest.raises(GeometryError):
            homotopic_to_serial(locked, infeasible)

    def test_single_bfs_matches_per_schedule_search(self, counter_pair):
        locked = TwoPhaseLockingPolicy()(counter_pair)
        reachable = schedules_homotopic_to_serial(locked)
        for schedule in lock_feasible_schedules(locked):
            assert (schedule in reachable) == homotopic_to_serial(locked, schedule)


def _lock_each_access(system):
    """Lock, access, unlock every step on its own: well formed, not two-phase."""
    locked = []
    for txn in system.transactions:
        actions = []
        for position, step in enumerate(txn.steps, start=1):
            lock = f"lock:{step.variable}"
            actions += [LockAction(lock), AccessAction(position, step), UnlockAction(lock)]
        locked.append(LockedTransaction(actions, name=txn.name))
    return LockedTransactionSystem(system, locked, policy_name="per-access")


class TestHomotopySearch:
    """The per-schedule search on schedules that are not already serial."""

    def test_separated_blocks_leave_exactly_the_nonserializable_schedules(self):
        # locking each access alone leaves a path between the x block and
        # the y block: the schedules along it are feasible, not serializable
        # and not homotopic to a serial schedule
        system = make_system(["x", "y"], ["x", "y"])
        locked = _lock_each_access(system)
        verdicts = [
            (
                homotopic_to_serial(locked, schedule),
                is_serializable(system, locked.project_schedule(schedule)),
            )
            for schedule in lock_feasible_schedules(locked)
            if not is_serial(locked.format, schedule)
        ]
        assert all(homotopic == serializable for homotopic, serializable in verdicts)
        assert sum(not homotopic for homotopic, _ in verdicts) == 2

    def test_the_expansion_budget_is_enforced(self):
        locked = _lock_each_access(make_system(["x", "y"], ["x", "y"]))
        schedule = next(
            s for s in lock_feasible_schedules(locked) if not is_serial(locked.format, s)
        )
        with pytest.raises(GeometryError, match="budget"):
            homotopic_to_serial(locked, schedule, max_expansions=0)


class TestHomotopyEqualsSerializability:
    """Every lock-feasible schedule of a well-formed locked system is
    serializable iff it is homotopic to a serial schedule (Section 5.3)."""

    @pytest.mark.parametrize(
        "sequences",
        [
            (["x", "y"], ["y", "x"]),
            (["x", "y"], ["x", "y"]),
            (["x", "y"], ["x"]),
        ],
    )
    def test_2pl_feasible_schedules_all_homotopic_and_serializable(self, sequences):
        system = make_system(*sequences)
        locked = TwoPhaseLockingPolicy()(system)
        homotopic = schedules_homotopic_to_serial(locked)
        for schedule in lock_feasible_schedules(locked):
            projected = locked.project_schedule(schedule)
            assert schedule in homotopic
            assert is_serializable(system, projected)

    def test_unlocked_system_admits_nonserializable_feasible_schedules(self):
        # with no blocks every schedule is feasible and nothing obstructs the
        # deformation to a serial schedule, so homotopy certifies everything —
        # demonstrating that correctness needs the blocks, not homotopy alone.
        system = make_system(["x", "y"], ["y", "x"])
        locked = NoLockingPolicy()(system)
        feasible = lock_feasible_schedules(locked)
        homotopic = schedules_homotopic_to_serial(locked)
        nonserializable = [
            s
            for s in feasible
            if not is_serializable(system, locked.project_schedule(s))
        ]
        assert nonserializable
        assert all(s in homotopic for s in nonserializable)

    def test_2pl_prime_feasible_schedules_remain_homotopic(self):
        system = make_system(["x", "y"], ["x"])
        locked = TwoPhasePrimePolicy("x")(system)
        homotopic = schedules_homotopic_to_serial(locked)
        for schedule in lock_feasible_schedules(locked):
            assert schedule in homotopic
            assert is_serializable(system, locked.project_schedule(schedule))

    def test_blocks_connected_for_two_phase_locking(self):
        # 2PL's blocks always share the phase-shift point, hence are connected.
        # (Connectivity is sufficient, not necessary: 2PL' stays correct even
        # though its auxiliary-lock blocks may be disjoint.)
        for sequences in ((["x", "y"], ["y", "x"]), (["x", "y", "z"], ["x", "y"])):
            system = make_system(*sequences)
            space = progress_space(TwoPhaseLockingPolicy()(system))
            assert space.blocks_connected()
            assert space.common_point() is not None
