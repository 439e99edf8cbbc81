"""Unit tests for engine operations and transaction specs."""

import dataclasses
import pickle

import pytest

from repro.engine.operations import (
    AddConstantTransform,
    ConstantTransform,
    GuardedAddTransform,
    Operation,
    OperationKind,
    SumTransform,
    TransactionSpec,
    audit_transaction,
    increment_op,
    read_op,
    transfer_transaction,
    update_op,
    write_op,
)


class TestOperations:
    def test_read_op_properties(self):
        op = read_op("x")
        assert op.kind is OperationKind.READ
        assert op.reads and not op.writes
        assert str(op) == "read(x)"

    def test_write_op_ignores_reads(self):
        op = write_op("x", 7)
        assert op.writes and not op.reads
        assert op.transform({"anything": 1}) == 7

    def test_update_op_uses_reads(self):
        op = update_op("x", lambda reads: reads["x"] * 2)
        assert op.reads and op.writes
        assert op.transform({"x": 21}) == 42

    def test_increment_op(self):
        op = increment_op("x", 5)
        assert op.transform({"x": 1}) == 6

    def test_write_like_ops_require_transform(self):
        with pytest.raises(ValueError):
            Operation(OperationKind.UPDATE, "x")

    def test_str_names_the_symbol(self):
        assert str(increment_op("k3")) == "update(k3, add 1)"
        assert str(write_op("x", 7)) == "write(x, constant 7)"
        source, target = transfer_transaction("a", "b", 10).operations[1:]
        assert str(source) == "update(b, add 10 if a >= 10)"
        assert str(target) == "update(a, add -10 if a >= 10)"
        assert str(audit_transaction(["a", "b"], "S").operations[-1]) == (
            "update(S, sum a + b)"
        )

    def test_str_of_a_closure_update_has_no_symbol(self):
        assert str(update_op("x", lambda reads: reads["x"] * 2)) == "update(x)"


class TestSymbolTransforms:
    SYMBOLS = {
        "ConstantTransform(7)": ConstantTransform(7),
        "AddConstantTransform('x', 3)": AddConstantTransform("x", 3),
        "GuardedAddTransform('b', 10, 'a', 10)": GuardedAddTransform("b", 10, "a", 10),
        "SumTransform(('a', 'b'))": SumTransform(["a", "b"]),
    }

    @pytest.mark.parametrize("shown", sorted(SYMBOLS))
    def test_equal_by_symbol_and_params(self, shown):
        transform = self.SYMBOLS[shown]
        twin = type(transform)(*transform.params)
        assert twin == transform and twin is not transform
        assert hash(twin) == hash(transform)
        assert pickle.loads(pickle.dumps(transform)) == transform
        assert repr(transform) == shown

    def test_params_tell_symbols_apart(self):
        assert AddConstantTransform("x", 1) != AddConstantTransform("x", 2)
        assert AddConstantTransform("x", 1) != AddConstantTransform("y", 1)
        assert GuardedAddTransform("a", -5, "a", 5) != GuardedAddTransform("a", 5, "a", 5)
        assert ConstantTransform(("x", 1)) != AddConstantTransform("x", 1)
        assert ConstantTransform(1) != 1

    def test_builders_return_equal_programs(self):
        assert transfer_transaction("a", "b", 5) == transfer_transaction("a", "b", 5)
        assert audit_transaction(["a", "b"], "S") == audit_transaction(("a", "b"), "S")
        assert transfer_transaction("a", "b", 5) != transfer_transaction("a", "b", 6)


class TestTransactionSpec:
    def test_requires_operations(self):
        with pytest.raises(ValueError):
            TransactionSpec([])

    def test_read_and_write_sets(self):
        spec = TransactionSpec([read_op("a"), update_op("b", lambda r: 1), write_op("c", 2)])
        assert spec.read_set() == {"a", "b"}
        assert spec.write_set() == {"b", "c"}
        assert len(spec) == 3

    @pytest.mark.parametrize(
        "declared, writes, expected",
        [
            (None, False, True),
            (None, True, False),
            (True, False, True),
            (False, False, False),
            (False, True, False),
        ],
    )
    def test_is_read_only_is_declared_or_detected(self, declared, writes, expected):
        operations = [read_op("a")] + ([write_op("b", 1)] if writes else [])
        spec = TransactionSpec(operations, read_only=declared)
        assert spec.is_read_only is expected
        assert TransactionSpec(operations, txn_id=3, read_only=declared).is_read_only is expected

    def test_is_read_only_is_not_a_field(self):
        # worked out once at construction, but not part of the value
        spec = TransactionSpec([read_op("a")], name="t")
        assert spec == TransactionSpec([read_op("a")], name="t")
        assert hash(spec) == hash(TransactionSpec([read_op("a")], name="t"))
        assert "is_read_only" not in repr(spec)
        assert "is_read_only" not in {f.name for f in dataclasses.fields(spec)}
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.is_read_only = False

    def test_txn_id(self):
        assert TransactionSpec([read_op("a")], name="t", txn_id=7).txn_id == 7
        assert TransactionSpec([read_op("a")], name="t").txn_id is None

    def test_transfer_transaction_is_conditional(self):
        spec = transfer_transaction("A", "B", 100)
        credit = spec.operations[1].transform
        debit = spec.operations[2].transform
        rich = {"A": 150, "B": 50}
        poor = {"A": 50, "B": 50}
        assert credit(rich) == 150 and debit(rich) == 50
        assert credit(poor) == 50 and debit(poor) == 50

    def test_audit_transaction_totals_keys(self):
        spec = audit_transaction(["a", "b"], "total")
        assert spec.operations[-1].transform({"a": 2, "b": 3}) == 5
        assert spec.keys_read() == ("a", "b", "total")
