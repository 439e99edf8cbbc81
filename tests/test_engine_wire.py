"""A transaction is its program.

An ``Operation`` is a ``(kind, key, transform)`` triple, so a spec's
``operations`` tuple is what a session's kernel steps run, unconverted.
The triple keeps the ``repr``, hash and pickle it had as a frozen
dataclass.  ``ParallelShardRunner``'s forked workers inherit their
batch, so no spec is converted on its way to a worker either.
"""

import pickle

import pytest

from repro.engine.kernel import EngineKernel, Session
from repro.engine.operations import (
    Operation,
    OperationKind,
    TransactionSpec,
    increment_op,
    read_op,
    write_op,
)
from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking
from repro.engine.storage import DataStore


#: one operation of each kind, with the ``repr`` it had as a frozen dataclass
REPRS = [
    (
        read_op("x"),
        "Operation(kind=<OperationKind.READ: 'read'>, key='x', transform=None)",
    ),
    (
        write_op("x", 7),
        "Operation(kind=<OperationKind.WRITE: 'write'>, key='x', "
        "transform=ConstantTransform(7))",
    ),
    (
        increment_op("y", 3),
        "Operation(kind=<OperationKind.UPDATE: 'update'>, key='y', "
        "transform=AddConstantTransform('y', 3))",
    ),
]


class TestOperationIsATriple:
    @pytest.mark.parametrize("op, text", REPRS, ids=["read", "write", "update"])
    def test_repr_hash_and_pickle_are_unchanged(self, op, text):
        assert isinstance(op, tuple)
        assert repr(op) == text
        assert hash(op) == hash((op.kind, op.key, op.transform))
        assert tuple(op) == (op.kind, op.key, op.transform)
        restored = pickle.loads(pickle.dumps(op))
        assert type(restored) is Operation
        assert restored == op

    @pytest.mark.parametrize("kind", [OperationKind.WRITE, OperationKind.UPDATE])
    def test_a_write_without_a_transform_is_rejected(self, kind):
        with pytest.raises(ValueError, match="needs a transform"):
            Operation(kind, "x")

    def test_a_session_runs_the_spec_operations_as_they_are(self):
        spec = TransactionSpec([read_op("x"), increment_op("x")])
        session = Session(spec, 0)
        assert session.program is spec.operations
        kernel = EngineKernel(StrictTwoPhaseLocking(DataStore({"x": 0})))
        kernel.register(session)
        kernel.step(session)  # begin
        kernel.restart(session)
        assert session.program is spec.operations
        other = TransactionSpec([write_op("y", 1)])
        session.begin_new(other)
        assert session.program is other.operations
