"""Unit tests for locked transaction systems and the policy framework."""

import pytest

from repro.core.transactions import Transaction, TransactionSystem, make_system, update_step
from repro.core.schedules import schedule_from_pairs, serial_schedule
from repro.core.semantics import final_globals
from repro.locking.policies import (
    UNLOCKED,
    AccessAction,
    LockAction,
    LockedTransaction,
    LockedTransactionSystem,
    LockingError,
    LockingPolicy,
    UnlockAction,
    default_lock_name,
    is_two_phase,
    is_well_formed,
    is_well_nested,
)
from repro.locking.two_phase import NoLockingPolicy, TwoPhaseLockingPolicy


def _locked(actions, name="T"):
    return LockedTransaction(actions, name=name)


class TestActions:
    def test_action_str_forms(self):
        assert str(LockAction("lock:x")) == "lock lock:x"
        assert str(UnlockAction("lock:x")) == "unlock lock:x"
        assert "access x" in str(AccessAction(1, update_step("x")))

    def test_default_lock_name_prefix(self):
        assert default_lock_name("balance") == "lock:balance"


class TestWellNestedness:
    def test_simple_pair_is_well_nested(self):
        txn = _locked(
            [LockAction("L"), AccessAction(1, update_step("x")), UnlockAction("L")]
        )
        assert is_well_nested(txn)

    def test_unlock_without_lock_rejected(self):
        txn = _locked([UnlockAction("L"), AccessAction(1, update_step("x"))])
        assert not is_well_nested(txn)

    def test_double_lock_rejected(self):
        txn = _locked(
            [LockAction("L"), LockAction("L"), AccessAction(1, update_step("x"))]
        )
        assert not is_well_nested(txn)

    def test_dangling_lock_rejected(self):
        txn = _locked([LockAction("L"), AccessAction(1, update_step("x"))])
        assert not is_well_nested(txn)

    def test_relock_after_unlock_allowed(self):
        txn = _locked(
            [
                LockAction("L"),
                AccessAction(1, update_step("x")),
                UnlockAction("L"),
                LockAction("L"),
                UnlockAction("L"),
            ]
        )
        assert is_well_nested(txn)


class TestTwoPhaseAndWellFormed:
    def test_two_phase_property(self):
        ok = _locked(
            [
                LockAction("A"),
                LockAction("B"),
                AccessAction(1, update_step("x")),
                UnlockAction("A"),
                UnlockAction("B"),
            ]
        )
        bad = _locked(
            [
                LockAction("A"),
                UnlockAction("A"),
                LockAction("B"),
                AccessAction(1, update_step("x")),
                UnlockAction("B"),
            ]
        )
        assert is_two_phase(ok)
        assert not is_two_phase(bad)

    def test_well_formed_requires_lock_around_access(self):
        lock_name = default_lock_name("x")
        good = _locked(
            [LockAction(lock_name), AccessAction(1, update_step("x")), UnlockAction(lock_name)]
        )
        naked = _locked([AccessAction(1, update_step("x"))])
        assert is_well_formed(good)
        assert not is_well_formed(naked)


class TestLockedTransactionSystem:
    def test_projection_recovers_original_steps(self, fig2_system):
        locked = TwoPhaseLockingPolicy()(fig2_system)
        # a serial schedule of L(T): all of locked T1 then all of locked T2
        fmt = locked.format
        schedule = schedule_from_pairs(
            [(1, j) for j in range(1, fmt[0] + 1)] + [(2, j) for j in range(1, fmt[1] + 1)]
        )
        projected = locked.project_schedule(schedule)
        assert [r.as_tuple() for r in projected] == [
            (1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2),
        ]

    def test_lock_variables_disjoint_from_data_variables(self, fig2_system):
        locked = TwoPhaseLockingPolicy()(fig2_system)
        assert locked.lock_variables().isdisjoint(fig2_system.variables())

    def test_mismatched_locked_transactions_rejected(self, fig2_system):
        only_one = [TwoPhaseLockingPolicy().lock_transaction(fig2_system[0], 1)]
        with pytest.raises(LockingError):
            LockedTransactionSystem(fig2_system, only_one)

    def test_locked_transaction_must_preserve_steps(self):
        system = make_system(["x", "y"])
        wrong = LockedTransaction([AccessAction(1, update_step("x"))])
        with pytest.raises(LockingError):
            LockedTransactionSystem(system, [wrong])

    def test_as_transaction_system_adds_lock_steps(self, fig2_system):
        locked = TwoPhaseLockingPolicy()(fig2_system)
        as_plain = locked.as_transaction_system()
        assert as_plain.format == locked.format
        assert sum(as_plain.format) > fig2_system.total_steps

    def test_lock_constraint_checks_all_lock_variables(self, fig2_system):
        locked = TwoPhaseLockingPolicy()(fig2_system)
        constraint = locked.lock_constraint()
        free = {v: 0 for v in locked.lock_variables()}
        assert constraint.holds(free)
        stuck = dict(free)
        stuck[next(iter(stuck))] = 1
        assert not constraint.holds(stuck)

    def test_as_instance_satisfies_basic_assumption(self, fig2_system):
        # each locked transaction run alone locks and unlocks cleanly
        instance = TwoPhaseLockingPolicy()(fig2_system).as_instance()
        assert instance.correct_schedules()  # non-empty and constructible


class TestNoLockingPolicy:
    def test_no_locks_inserted(self, fig2_system):
        locked = NoLockingPolicy()(fig2_system)
        assert locked.lock_variables() == set()
        assert locked.format == fig2_system.format


class TestLockedSystemsAtWork:
    def test_lock_positions_index_the_lock_actions(self, fig2_system):
        locked = TwoPhaseLockingPolicy()(fig2_system)
        for txn in locked.locked:
            for variable in txn.lock_variables:
                positions = txn.lock_positions(variable)
                assert positions
                for position in positions:
                    assert txn[position] == LockAction(variable)

    def test_lock_interpretation_keeps_the_data_semantics(self, banking):
        """Data steps of L(T) run the original step functions (adapted to
        the extra lock locals); a serial run of L(T) ends in the original
        serial run's state with every lock released."""
        locked = TwoPhaseLockingPolicy()(banking.system)
        system = locked.as_transaction_system()
        interpretation = locked.lock_interpretation(banking.interpretation)
        order = [2, 3, 1]
        ran = final_globals(system, interpretation, serial_schedule(system, order))
        expected = final_globals(
            banking.system,
            banking.interpretation,
            serial_schedule(banking.system, order),
        )
        assert {v: ran[v] for v in expected} == expected
        assert expected != dict(banking.interpretation.initial_globals)
        assert all(ran[lock] == UNLOCKED for lock in locked.lock_variables())

    def test_a_separable_policy_must_lock_transactions(self, fig2_system):
        with pytest.raises(NotImplementedError):
            LockingPolicy()(fig2_system)
