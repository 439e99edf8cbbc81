"""Unit tests for the syntactic transaction-system model."""

import pytest

from repro.core.transactions import (
    Step,
    StepRef,
    Transaction,
    TransactionSystem,
    TransactionSystemError,
    make_system,
    read_step,
    update_step,
    write_step,
)


class TestStepRef:
    def test_one_based_indices(self):
        ref = StepRef(2, 3)
        assert ref.transaction == 2
        assert ref.step == 3
        assert ref.as_tuple() == (2, 3)

    def test_rejects_non_positive_indices(self):
        with pytest.raises(TransactionSystemError):
            StepRef(0, 1)
        with pytest.raises(TransactionSystemError):
            StepRef(1, 0)

    def test_hashable_and_equal(self):
        assert StepRef(1, 2) == StepRef(1, 2)
        assert len({StepRef(1, 2), StepRef(1, 2), StepRef(2, 1)}) == 2

    def test_str_matches_paper_notation(self):
        assert str(StepRef(1, 2)) == "T1,2"


class TestStep:
    def test_requires_variable_name(self):
        with pytest.raises(TransactionSystemError):
            Step(variable="")

    def test_read_only_and_blind_write_are_exclusive(self):
        with pytest.raises(TransactionSystemError):
            Step(variable="x", is_read_only=True, is_blind_write=True)

    def test_read_write_semantics_of_general_step(self):
        general = update_step("x")
        assert general.reads() and general.writes()

    def test_read_step_does_not_write(self):
        step = read_step("x")
        assert step.reads() and not step.writes()

    def test_blind_write_does_not_read(self):
        step = write_step("x")
        assert step.writes() and not step.reads()


class TestTransaction:
    def test_requires_at_least_one_step(self):
        with pytest.raises(TransactionSystemError):
            Transaction([])

    def test_variables_in_access_order(self):
        txn = Transaction([update_step("a"), update_step("b"), update_step("a")])
        assert txn.variables == ("a", "b", "a")
        assert txn.variable_set() == {"a", "b"}

    def test_len_and_indexing(self):
        txn = Transaction([update_step("a"), read_step("b")])
        assert len(txn) == 2
        assert txn[1].is_read_only
        assert list(txn) == list(txn.steps)

    def test_rename_variables_local_only(self):
        txn = Transaction([update_step("x"), update_step("y")])
        renamed = txn.rename_variables({"x": "z"})
        assert renamed.variables == ("z", "y")
        # original untouched
        assert txn.variables == ("x", "y")


class TestTransactionSystem:
    def test_format_and_total_steps(self, banking):
        system = banking.system
        assert system.format == (3, 2, 4)
        assert system.total_steps == 9
        assert system.num_transactions == 3
        assert len(system) == 3 and list(system) == list(system.transactions)
        # the instance exposes its system's format
        assert banking.format == system.format

    def test_variables_of_banking_example(self, banking):
        assert banking.system.variables() == {"A", "B", "S", "C"}

    def test_step_lookup_matches_paper(self, banking):
        system = banking.system
        assert system.step(StepRef(1, 1)).variable == "A"
        assert system.step(StepRef(1, 2)).variable == "B"
        assert system.step(StepRef(3, 3)).variable == "S"
        assert system.step(StepRef(3, 4)).variable == "C"

    def test_step_lookup_rejects_bad_refs(self, banking):
        with pytest.raises(TransactionSystemError):
            banking.system.step(StepRef(4, 1))
        with pytest.raises(TransactionSystemError):
            banking.system.step(StepRef(1, 9))

    def test_contains_ref(self, banking):
        assert banking.system.contains_ref(StepRef(2, 2))
        assert not banking.system.contains_ref(StepRef(2, 3))

    def test_step_refs_enumeration(self):
        system = make_system(["x"], ["y", "z"])
        assert system.step_refs() == [StepRef(1, 1), StepRef(2, 1), StepRef(2, 2)]

    def test_same_syntax_and_same_format(self):
        a = make_system(["x", "y"], ["y"])
        b = make_system(["x", "y"], ["y"])
        c = make_system(["x", "z"], ["z"])
        assert a.same_syntax(b)
        assert not a.same_syntax(c)
        assert a.same_format(c)

    def test_same_syntax_distinguishes_read_write_annotations(self):
        a = TransactionSystem([Transaction([read_step("x")])])
        b = TransactionSystem([Transaction([update_step("x")])])
        assert not a.same_syntax(b)

    def test_rename_variables_globally(self):
        system = make_system(["x", "y"], ["x"])
        renamed = system.rename_variables({"x": "w"})
        assert renamed.variables() == {"w", "y"}

    def test_steps_and_transactions_accessing(self, banking):
        system = banking.system
        assert system.transactions_accessing("A") == [1, 3]
        assert system.transactions_accessing("C") == [2, 3]
        assert {ref.as_tuple() for ref in system.steps_accessing("B")} == {
            (1, 2),
            (2, 1),
            (3, 2),
        }

    def test_conflicting_pairs_symmetric_across_transactions(self):
        system = make_system(["x"], ["x"])
        pairs = system.conflicting_pairs()
        assert pairs == [(StepRef(1, 1), StepRef(2, 1))]

    def test_no_conflicts_between_read_only_steps(self):
        system = TransactionSystem(
            [Transaction([read_step("x")]), Transaction([read_step("x")])]
        )
        assert system.conflicting_pairs() == []

    def test_describe_mentions_every_step(self, banking):
        text = banking.system.describe()
        assert "T1,1: update A" in text
        assert text.count("update") == 9
        assert "(3, 2, 4)" in text

    def test_canonical_function_symbols_unique(self, banking):
        symbols = banking.system.canonical_function_symbols()
        assert len(set(symbols.values())) == banking.system.total_steps

    def test_empty_system_rejected(self):
        with pytest.raises(TransactionSystemError):
            TransactionSystem([])
