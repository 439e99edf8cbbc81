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

Every transform the engine, its workloads and the harness build is a
:class:`SymbolTransform`: the paper's uninterpreted function symbol with
its parameters, compared, hashed and printed by value (``update(k3, add
1)``), so that programs can be shared, pickled and inspected.  A
transform is still any callable, though, and user code may pass a plain
function or closure; such an operation compares by identity and prints
without its symbol (``update(k3)``).

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


class SymbolTransform:
    """A transform that is a function symbol applied to fixed parameters.

    The paper's step ``x <- f(t_1, ..., t_j)`` names an uninterpreted
    symbol ``f``; a subclass is one such symbol with its ``symbol`` name
    and its parameters held in ``__slots__``.  Equality, hashing and
    ``repr`` follow ``(symbol, params)``, so two operations built with the
    same symbol and parameters are equal values: a batch can hold them as
    one object, and a pickled batch loads as an equal batch.
    """

    __slots__ = ()
    symbol = ""

    @property
    def params(self) -> Tuple[Any, ...]:
        """The parameters, in ``__slots__`` order."""
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, SymbolTransform)
            and self.symbol == other.symbol
            and self.params == other.params
        )

    def __hash__(self) -> int:
        # keeps Operation (a tuple hashing all three fields) hashable
        return hash((self.symbol, self.params))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self.params))})"


class ConstantTransform(SymbolTransform):
    """A transform returning a fixed value (the blind-write shape)."""

    __slots__ = ("value",)
    symbol = "constant"

    def __init__(self, value: Any) -> None:
        self.value = value

    def __call__(self, reads: Mapping[str, Any]) -> Any:
        return self.value

    def __str__(self) -> str:
        return f"constant {self.value!r}"


class AddConstantTransform(SymbolTransform):
    """A transform adding a fixed amount to the value read for ``key``."""

    __slots__ = ("key", "amount")
    symbol = "add"

    def __init__(self, key: str, amount: Any = 1) -> None:
        self.key = key
        self.amount = amount

    def __call__(self, reads: Mapping[str, Any]) -> Any:
        return reads[self.key] + self.amount

    def __str__(self) -> str:
        return f"add {self.amount!r}"


class GuardedAddTransform(SymbolTransform):
    """Add ``amount`` to ``key`` if the value read for ``guard`` is at least
    ``threshold``; otherwise keep ``key`` as read.

    One leg of a guarded transfer: the debit is ``(source, -amount,
    source, amount)`` and the credit ``(target, amount, source, amount)``,
    so both legs take effect or neither does.
    """

    __slots__ = ("key", "amount", "guard", "threshold")
    symbol = "guarded-add"

    def __init__(self, key: str, amount: Any, guard: str, threshold: Any) -> None:
        self.key = key
        self.amount = amount
        self.guard = guard
        self.threshold = threshold

    def __call__(self, reads: Mapping[str, Any]) -> Any:
        if reads[self.guard] >= self.threshold:
            return reads[self.key] + self.amount
        return reads[self.key]

    def __str__(self) -> str:
        return f"add {self.amount!r} if {self.guard} >= {self.threshold!r}"


class SumTransform(SymbolTransform):
    """The sum of the values read for ``keys`` (an audit total)."""

    __slots__ = ("keys",)
    symbol = "sum"

    def __init__(self, keys: Iterable[str]) -> None:
        self.keys = tuple(keys)

    def __call__(self, reads: Mapping[str, Any]) -> Any:
        return sum(reads[key] for key in self.keys)

    def __str__(self) -> str:
        return f"sum {' + '.join(self.keys)}"


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
        if isinstance(self.transform, SymbolTransform):
            return f"{self.kind.value}({self.key}, {self.transform})"
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
    return TransactionSpec(
        [
            read_op(source),
            update_op(target, GuardedAddTransform(target, amount, source, amount)),
            update_op(source, GuardedAddTransform(source, -amount, source, amount)),
        ],
        name=name,
    )


def audit_transaction(keys: Sequence[str], total_key: str, name: str = "audit") -> TransactionSpec:
    """Read every key in ``keys`` and store their sum into ``total_key`` (the paper's T3)."""
    operations: List[Operation] = [read_op(key) for key in keys]
    operations.append(update_op(total_key, SumTransform(keys)))
    return TransactionSpec(operations, name=name)
