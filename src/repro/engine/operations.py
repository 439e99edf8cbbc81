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

Operations, their transforms and whole programs are immutable values, and
the workload generators share them: every spec of a batch that reads a
key holds the *same* ``read_op(key)`` object, and every transaction of a
hot-spot queue on one key the same program tuple.  Nothing may therefore
key state on an operation's (or a program's) identity; compare by value.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Mapping, Optional, Sequence, Tuple


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

    A callable class rather than a closure so that two operations built
    by :func:`write_op` with the same value compare and hash equal, and
    print their value.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __call__(self, reads: Mapping[str, Any]) -> Any:
        return self.value

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, ConstantTransform) and self.value == other.value

    def __hash__(self) -> int:
        # keep Operation (a tuple hashing all three fields) hashable, as
        # it is with identity-hashed lambda transforms
        return hash(("constant", self.value))

    def __repr__(self) -> str:
        return f"ConstantTransform({self.value!r})"


class AddConstantTransform:
    """A transform adding a fixed amount to the value read for ``key``.

    The value-comparable counterpart of the ``lambda reads: reads[key]
    + amount`` closure :func:`increment_op` used to build (see
    :class:`ConstantTransform`).
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


class Operation(namedtuple("Operation", "kind key transform")):
    """One operation of a transaction program: a ``(kind, key, transform)`` triple.

    A tuple, so a spec's ``operations`` *is* the program the engine
    kernel indexes and unpacks on every step.

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

    __slots__ = ()

    def __new__(
        cls, kind: OperationKind, key: str, transform: Optional[Transform] = None
    ) -> "Operation":
        if kind in (OperationKind.WRITE, OperationKind.UPDATE) and transform is None:
            raise ValueError(f"{kind.value} operation on {key!r} needs a transform")
        return tuple.__new__(cls, (kind, key, transform))

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

    The ``operations`` tuple and the operations in it are immutable and
    may be shared with other specs of the same batch (see the module
    docstring), so state must never be keyed on their identity.

    Parameters
    ----------
    operations:
        The ordered operations: held as one tuple, the program a session
        runs as it is.
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
        #: whether the transaction performs no writes (declared or
        #: detected).  Worked out once here, not on every begin; a plain
        #: attribute, not a field, so it is in neither ``==`` nor ``repr``.
        object.__setattr__(
            self,
            "is_read_only",
            read_only
            if read_only is not None
            else all(not op.writes for op in self.operations),
        )

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
