"""Transaction programs for the engine: operations and transaction specs.

The engine's transactions mirror the paper's straight-line model: a
transaction is a fixed sequence of operations, each touching one key.
Three operation kinds are supported:

* ``READ`` — read a key into the transaction's local context;
* ``WRITE`` — blind-write a computed value to a key;
* ``UPDATE`` — read-modify-write: the new value is a function of the
  values read so far (exactly the paper's general step
  ``x_ij <- f_ij(t_i1, ..., t_ij)``).

An ``UPDATE``'s transform receives a mapping of *all values the
transaction has read so far* (keyed by the key name, latest read wins)
and returns the new value for the operation's key.  The mapping is the
engine's **live read buffer**, handed over without a defensive copy
(copying it per operation dominated the kernel hot path): transforms
must treat it as read-only and must not retain it after returning —
mutating it would corrupt the transaction's read set mid-flight.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union


class OperationKind(enum.Enum):
    """The kind of a transaction operation."""

    READ = "read"
    WRITE = "write"
    UPDATE = "update"


#: An UPDATE transform: maps {key: value read so far} to the new value.
#: The mapping is the live read buffer — treat it as read-only, do not
#: mutate or retain it (see the module docstring).
Transform = Callable[[Mapping[str, Any]], Any]


class ConstantTransform:
    """A transform returning a fixed value (the blind-write shape).

    A module-level callable class rather than a closure so that the
    operations built by :func:`write_op` survive :mod:`pickle`, and so
    that :func:`encode_spec` can recognise it — the process-parallel
    shard runner (:mod:`repro.engine.parallel`) ships transaction
    programs to worker processes, and lambdas cannot make that trip.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __call__(self, reads: Mapping[str, Any]) -> Any:
        return self.value

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, ConstantTransform) and self.value == other.value

    def __hash__(self) -> int:
        # keep Operation (a frozen dataclass hashing all fields) hashable,
        # as it was with identity-hashed lambda transforms
        return hash(("constant", self.value))

    def __repr__(self) -> str:
        return f"ConstantTransform({self.value!r})"


class AddConstantTransform:
    """A transform adding a fixed amount to the value read for ``key``.

    Picklable counterpart of the ``lambda reads: reads[key] + amount``
    closure :func:`increment_op` used to build (see
    :class:`ConstantTransform` for why picklability matters).
    """

    __slots__ = ("key", "amount")

    def __init__(self, key: str, amount: Any = 1) -> None:
        self.key = key
        self.amount = amount

    def __call__(self, reads: Mapping[str, Any]) -> Any:
        return reads[self.key] + self.amount

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, AddConstantTransform)
            and self.key == other.key
            and self.amount == other.amount
        )

    def __hash__(self) -> int:
        return hash(("add", self.key, self.amount))

    def __repr__(self) -> str:
        return f"AddConstantTransform({self.key!r}, {self.amount!r})"


@dataclass(frozen=True)
class Operation:
    """One operation of a transaction program.

    Parameters
    ----------
    kind:
        READ, WRITE or UPDATE.
    key:
        The key accessed.
    transform:
        For UPDATE: the function computing the new value from the reads
        so far.  Ignored for READ; for WRITE it receives the same mapping
        but conventionally ignores it (use :func:`write_op` to write a
        constant).
    """

    kind: OperationKind
    key: str
    transform: Optional[Transform] = None

    def __post_init__(self) -> None:
        if self.kind in (OperationKind.WRITE, OperationKind.UPDATE) and self.transform is None:
            raise ValueError(f"{self.kind.value} operation on {self.key!r} needs a transform")

    @property
    def reads(self) -> bool:
        """Whether the operation reads its key (READ and UPDATE do)."""
        return self.kind in (OperationKind.READ, OperationKind.UPDATE)

    @property
    def writes(self) -> bool:
        """Whether the operation writes its key (WRITE and UPDATE do)."""
        return self.kind in (OperationKind.WRITE, OperationKind.UPDATE)

    def __str__(self) -> str:
        return f"{self.kind.value}({self.key})"


def read_op(key: str) -> Operation:
    """A pure read of ``key``."""
    return Operation(OperationKind.READ, key)


def write_op(key: str, value: Any) -> Operation:
    """A blind write of a constant value to ``key``."""
    return Operation(OperationKind.WRITE, key, transform=ConstantTransform(value))


def update_op(key: str, transform: Transform) -> Operation:
    """A read-modify-write of ``key`` using ``transform``."""
    return Operation(OperationKind.UPDATE, key, transform=transform)


def increment_op(key: str, amount: Any = 1) -> Operation:
    """A read-modify-write adding ``amount`` to ``key``."""
    return update_op(key, AddConstantTransform(key, amount))


@dataclass(frozen=True)
class TransactionSpec:
    """A straight-line transaction program for the engine.

    Parameters
    ----------
    operations:
        The ordered operations.
    name:
        A descriptive label (appears in metrics and logs).
    txn_id:
        Optional externally assigned identifier; the executor assigns one
        if absent.
    read_only:
        Read-only declaration.  ``True`` asserts the program never writes
        (validated here) and makes the transaction eligible for the
        engine kernel's snapshot fast path under multi-version protocols;
        ``False`` opts out even if no operation writes; ``None`` (the
        default) auto-detects from the operations.
    """

    operations: Tuple[Operation, ...]
    name: str = "txn"
    txn_id: Optional[int] = None
    read_only: Optional[bool] = None

    def __init__(
        self,
        operations: Iterable[Operation],
        name: str = "txn",
        txn_id: Optional[int] = None,
        read_only: Optional[bool] = None,
    ) -> None:
        object.__setattr__(self, "operations", tuple(operations))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "txn_id", txn_id)
        object.__setattr__(self, "read_only", read_only)
        if not self.operations:
            raise ValueError("a transaction spec needs at least one operation")
        if read_only and any(op.writes for op in self.operations):
            raise ValueError(
                f"transaction {name!r} is declared read-only but writes "
                f"{sorted(set(op.key for op in self.operations if op.writes))}"
            )

    @property
    def is_read_only(self) -> bool:
        """Whether the transaction performs no writes (declared or detected)."""
        if self.read_only is not None:
            return self.read_only
        return all(not op.writes for op in self.operations)

    def __len__(self) -> int:
        return len(self.operations)

    def keys_read(self) -> Tuple[str, ...]:
        return tuple(op.key for op in self.operations if op.reads)

    def keys_written(self) -> Tuple[str, ...]:
        return tuple(op.key for op in self.operations if op.writes)

    def read_set(self) -> frozenset:
        return frozenset(self.keys_read())

    def write_set(self) -> frozenset:
        return frozenset(self.keys_written())

    def with_id(self, txn_id: int) -> "TransactionSpec":
        """A copy with an assigned transaction identifier."""
        return TransactionSpec(
            self.operations, name=self.name, txn_id=txn_id, read_only=self.read_only
        )


# ----------------------------------------------------------------------
# the wire form: what crosses a process boundary instead of a spec
# ----------------------------------------------------------------------

#: a lowered transaction program: one ``(kind, key, transform)`` per
#: operation — what :func:`repro.engine.kernel.lower` makes of a spec
#: and what the kernel indexes on every step
Program = Tuple[Tuple[OperationKind, str, Optional[Transform]], ...]

#: ``(name, txn_id, read_only, ((kind value, key, transform), ...))`` with
#: the shipped transforms as tagged tuples (see :func:`encode_spec`)
WireSpec = Tuple[str, Optional[int], Optional[bool], Tuple[Tuple[str, str, Any], ...]]

_KIND_OF_VALUE = {kind.value: kind for kind in OperationKind}
_CONSTANT_TAG = "const"
_ADD_TAG = "add"
_TRANSFORM_OF_TAG = {_CONSTANT_TAG: ConstantTransform, _ADD_TAG: AddConstantTransform}


class LoweredSpec:
    """A transaction as it comes off the wire: labels plus a lowered program.

    Stands in for a :class:`TransactionSpec` wherever the engine only
    *runs* the transaction: it answers the four things the kernel and
    the executor read from a session's spec — ``name`` (the
    ``per_transaction`` key), :attr:`is_read_only` (the fast-path
    switch), :meth:`read_set` and :meth:`write_set` (the footprint a
    deterministic protocol is told at begin) — exactly as the spec it
    was encoded from does, and :func:`repro.engine.kernel.lower` hands
    back :attr:`program` as it is.  No :class:`Operation` is rebuilt:
    re-materialising the frozen dataclasses costs as much as the
    unpickle the wire form saves.
    """

    __slots__ = ("name", "txn_id", "read_only", "program")

    def __init__(
        self,
        name: str,
        txn_id: Optional[int],
        read_only: Optional[bool],
        program: Program,
    ) -> None:
        self.name = name
        self.txn_id = txn_id
        self.read_only = read_only
        self.program = program

    @property
    def is_read_only(self) -> bool:
        """As :attr:`TransactionSpec.is_read_only`: declared, else detected."""
        if self.read_only is not None:
            return self.read_only
        return all(kind is OperationKind.READ for kind, _key, _transform in self.program)

    def read_set(self) -> frozenset:
        return frozenset(
            key for kind, key, _transform in self.program if kind is not OperationKind.WRITE
        )

    def write_set(self) -> frozenset:
        return frozenset(
            key for kind, key, _transform in self.program if kind is not OperationKind.READ
        )


#: what a session runs: a spec, or one that arrived already lowered
AnySpec = Union[TransactionSpec, LoweredSpec]


def encode_spec(spec: TransactionSpec) -> WireSpec:
    """The wire form of ``spec``: strings, numbers and tuples only.

    An :class:`OperationKind` travels as its string value and the two
    shipped transforms as tagged tuples — ``("const", value)`` and
    ``("add", key, amount)`` — so a batch built from the shipped op
    builders pickles without a single class instance: a third of the
    bytes of the ``TransactionSpec`` graph and a tenth of the time.  Any
    other transform rides as itself; a module-level callable still
    pickles (by reference), a lambda or closure does not, and whoever
    pickles the result reports that.
    """
    program = []
    for op in spec.operations:
        transform = op.transform
        cls = transform.__class__
        if cls is ConstantTransform:
            transform = (_CONSTANT_TAG, transform.value)
        elif cls is AddConstantTransform:
            transform = (_ADD_TAG, transform.key, transform.amount)
        # ``_value_`` is the member's plain attribute; ``.value`` goes
        # through a descriptor call on every operation
        program.append((op.kind._value_, op.key, transform))
    return (spec.name, spec.txn_id, spec.read_only, tuple(program))


def decode_spec(wire: WireSpec) -> LoweredSpec:
    """Rebuild the runnable side of :func:`encode_spec`'s output.

    ``decode_spec(encode_spec(spec)).program == lower(spec)``: the
    shipped transforms compare by value, anything else is the same
    object (or its unpickled copy).
    """
    name, txn_id, read_only, operations = wire
    program = []
    for kind, key, transform in operations:
        if transform.__class__ is tuple:
            transform = _TRANSFORM_OF_TAG[transform[0]](*transform[1:])
        program.append((_KIND_OF_VALUE[kind], key, transform))
    return LoweredSpec(name, txn_id, read_only, tuple(program))


def transfer_transaction(
    source: str, target: str, amount: int, name: str = "transfer"
) -> TransactionSpec:
    """Move ``amount`` from ``source`` to ``target`` if funds suffice.

    Mirrors the paper's T1: the debit and credit are both conditioned on
    the balance read at the start, so the transfer is all-or-nothing.
    """

    def debit(reads: Mapping[str, Any]) -> Any:
        return reads[source] - amount if reads[source] >= amount else reads[source]

    def credit(reads: Mapping[str, Any]) -> Any:
        return reads[target] + amount if reads[source] >= amount else reads[target]

    return TransactionSpec(
        [read_op(source), update_op(target, credit), update_op(source, debit)],
        name=name,
    )


def audit_transaction(keys: Sequence[str], total_key: str, name: str = "audit") -> TransactionSpec:
    """Read every key in ``keys`` and store their sum into ``total_key`` (the paper's T3)."""
    operations: List[Operation] = [read_op(key) for key in keys]

    def total(reads: Mapping[str, Any]) -> Any:
        return sum(reads[key] for key in keys)

    operations.append(update_op(total_key, total))
    return TransactionSpec(operations, name=name)
