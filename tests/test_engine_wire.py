"""A transaction is its program, on the wire and in a session.

An ``Operation`` is a ``(kind, key, transform)`` triple, so a spec's
``operations`` tuple is what a session's kernel steps run.
``ParallelShardRunner`` ships ``encode_spec`` tuples instead of spec
graphs, and its workers run the ``TransactionSpec``s ``decode_spec``
rebuilds.  Everything the engine derives from a spec — the
``per_transaction`` keys, the declared-read-only fast path, the
footprint a deterministic protocol is told at begin, the program
itself — has to come out of the round trip unchanged, for every
registered protocol.
"""

import io
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import small_batches

from repro.engine.kernel import EngineKernel, Session
from repro.engine.operations import (
    AddConstantTransform,
    ConstantTransform,
    Operation,
    OperationKind,
    TransactionSpec,
    decode_spec,
    encode_spec,
    increment_op,
    read_op,
    transfer_transaction,
    update_op,
    write_op,
)
from repro.engine.protocols.registry import PROTOCOL_ENTRIES
from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking
from repro.engine.runtime import run_batch
from repro.engine.storage import DataStore
from repro.engine.workloads import (
    analytical_workload,
    hotspot_queue_workload,
    partitioned_workload,
    zipfian_workload,
)


def _double(reads):
    """Module-level, hence picklable by reference, but not a shipped transform."""
    return reads["x"] * 2


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


class TestCodec:
    def test_shipped_batches_encode_to_plain_data(self):
        """str / int / bool / None / tuple only: pickle's C fast path."""

        def walk(value):
            if isinstance(value, tuple):
                for item in value:
                    walk(item)
            else:
                assert value is None or type(value) in (str, int, bool), value

        spec = TransactionSpec(
            [read_op("x"), write_op("x", 7), increment_op("y", 3)],
            name="mixed",
            txn_id=9,
            read_only=False,
        )
        wire = encode_spec(spec)
        walk(wire)
        assert wire == (
            "mixed",
            9,
            False,
            (
                ("read", "x", None),
                ("write", "x", ("const", 7)),
                ("update", "y", ("add", "y", 3)),
            ),
        )

    def test_decode_inverts_encode(self):
        spec = TransactionSpec(
            [read_op("x"), write_op("x", 7), increment_op("y", 3)], name="mixed"
        )
        decoded = decode_spec(encode_spec(spec))
        assert type(decoded) is TransactionSpec
        assert decoded == spec
        assert all(type(op) is Operation for op in decoded.operations)
        kinds = [kind for kind, _key, _transform in decoded.operations]
        # the enum members themselves: the kernel compares kinds by identity
        assert kinds[0] is OperationKind.READ
        assert kinds[1] is OperationKind.WRITE
        assert kinds[2] is OperationKind.UPDATE
        assert type(decoded.operations[1].transform) is ConstantTransform
        assert type(decoded.operations[2].transform) is AddConstantTransform

    def test_other_callables_ride_as_themselves(self):
        closure = lambda reads: reads["x"] + 1  # noqa: E731
        spec = TransactionSpec([update_op("x", closure), update_op("x", _double)])
        wire = encode_spec(spec)
        assert wire[3][0][2] is closure
        assert wire[3][1][2] is _double
        assert decode_spec(wire) == spec
        # a module-level function survives pickling by reference ...
        module_level = encode_spec(TransactionSpec([update_op("x", _double)]))
        restored = decode_spec(pickle.loads(pickle.dumps(module_level)))
        assert restored.operations[0].transform is _double
        # ... a lambda does not, and the codec does not pretend otherwise
        with pytest.raises(Exception, match="lambda"):
            pickle.dumps(wire)

    def test_subclassed_transforms_are_not_flattened(self):
        """Only the two exact shipped classes have a tag; a subclass may
        override ``__call__`` and must ride as itself."""

        class Doubling(ConstantTransform):
            def __call__(self, reads):
                return self.value * 2

        transform = Doubling(4)
        wire = encode_spec(TransactionSpec([update_op("x", transform)]))
        assert wire[3][0][2] is transform

    @pytest.mark.parametrize(
        "operations, declared",
        [
            ([read_op("a"), read_op("b")], None),
            ([read_op("a"), read_op("b")], True),
            # opting out of the fast path even though nothing writes
            ([read_op("a"), read_op("b")], False),
            ([read_op("a"), write_op("b", 1)], None),
            ([read_op("a"), write_op("b", 1)], False),
            # UPDATE both reads and writes its key
            ([increment_op("a")], None),
            ([write_op("a", 1), write_op("a", 2)], None),
            ([read_op("a"), increment_op("a"), write_op("c", 0)], None),
        ],
    )
    def test_decoded_spec_answers_as_the_spec_does(self, operations, declared):
        spec = TransactionSpec(operations, name="probe", txn_id=3, read_only=declared)
        decoded = decode_spec(encode_spec(spec))
        assert decoded == spec
        assert decoded.read_only is spec.read_only
        assert decoded.is_read_only is spec.is_read_only
        assert decoded.read_set() == spec.read_set()
        assert decoded.write_set() == spec.write_set()


class TestShippedBuildersSurviveTheWire:
    """Pickle round trip of what the shipped workload builders produce."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: partitioned_workload(num_transactions=30, seed=3),
            lambda: hotspot_queue_workload(
                num_transactions=30, ops_per_transaction=6, seed=3
            ),
            # declared-read-only scans beside increments
            lambda: analytical_workload(num_transactions=30, seed=3),
            lambda: zipfian_workload(num_transactions=30, seed=3),
        ],
        ids=["partitioned", "hotspot_queue", "analytical", "zipfian"],
    )
    def test_round_trip_equals_the_spec(self, build):
        _initial, specs = build()
        payload = pickle.dumps(tuple(encode_spec(spec) for spec in specs))
        for spec, wire in zip(specs, pickle.loads(payload)):
            decoded = decode_spec(wire)
            assert decoded == spec
            assert all(type(op) is Operation for op in decoded.operations)
            assert decoded.is_read_only is spec.is_read_only

    def test_no_spec_class_is_named_in_the_payload(self):
        """The payload of a shipped batch references no class at all."""
        _initial, specs = analytical_workload(num_transactions=30, seed=3)
        payload = pickle.dumps(tuple(encode_spec(spec) for spec in specs))

        class NoGlobals(pickle.Unpickler):
            def find_class(self, module, name):
                raise AssertionError(f"payload names {module}.{name}")

        assert len(NoGlobals(io.BytesIO(payload)).load()) == len(specs)

    def test_closure_built_transfer_does_not_pickle(self):
        """``transfer_transaction`` closes over its arguments: it encodes
        and runs in process, but cannot cross a process boundary (the
        runner turns this into a ``ValueError`` naming the shard, see
        ``test_engine_parallel``)."""
        spec = transfer_transaction("a", "b", 5)
        wire = encode_spec(spec)
        assert decode_spec(wire) == spec
        with pytest.raises(Exception, match="local object|pickle"):
            pickle.dumps(wire)


# ----------------------------------------------------------------------
# running the decoded batch is running the batch
# ----------------------------------------------------------------------


def _view(result):
    return {
        "per_transaction": result.per_transaction,
        "blocks": result.blocks,
        "restarts": result.restarts,
        "aborted_attempts": result.aborted_attempts,
        "snapshot": result.store_snapshot,
        "serializable": result.committed_serializable,
        "counters": result.metrics.snapshot(),
    }


@pytest.mark.parametrize("protocol", sorted(PROTOCOL_ENTRIES))
@settings(max_examples=15, deadline=None)
@given(
    batch=small_batches(),
    declarations=st.lists(
        st.sampled_from([None, True, False]), min_size=8, max_size=8
    ),
)
def test_decoded_batch_runs_exactly_as_the_specs(protocol, batch, declarations):
    """encode -> decode (no pickle, so the strategy's lambda updates pass
    through) changes nothing the run reports, under every registered
    protocol; write-free programs are re-declared read-only / opted out
    / left to auto-detection so the fast-path switch is exercised."""
    keys, specs, seed = batch
    specs = [
        TransactionSpec(spec.operations, name=spec.name, read_only=declared)
        if spec.is_read_only
        else spec
        for spec, declared in zip(specs, declarations)
    ]
    factory = PROTOCOL_ENTRIES[protocol].factory
    initial = {key: 0 for key in keys}

    def run(batch_specs):
        return run_batch(
            factory,
            DataStore(initial),
            batch_specs,
            interleaving="random",
            seed=seed,
            max_attempts=500,
        )

    direct = run(specs)
    decoded = run([decode_spec(encode_spec(spec)) for spec in specs])
    assert _view(decoded) == _view(direct)
