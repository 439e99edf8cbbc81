"""Transaction-system syntax (Section 2 of the paper).

A *transaction system* ``T`` is a finite set of transactions
``{T_1, ..., T_n}``; each transaction ``T_i`` is a finite, straight-line
sequence of *steps* ``T_i1, ..., T_im_i``.  The n-tuple ``(m_1, ..., m_n)``
is the *format* of the system.

A step ``T_ij`` is the indivisible execution of::

    t_ij <- x_ij
    x_ij <- f_ij(t_i1, ..., t_ij)

i.e. it reads one global variable ``x_ij`` into a fresh local variable
``t_ij`` and then overwrites ``x_ij`` with a value computed from *all*
local variables declared so far in the same transaction.  The function
symbol ``f_ij`` carries no meaning at the syntactic level; interpretations
are supplied separately (see :mod:`repro.core.semantics`).

Two special shapes the paper calls out:

* if ``f_ij`` is the identity on ``t_ij`` the step is a *read* step;
* if ``f_ij`` does not depend on ``t_ij`` the step is a *write* step.

This module is purely syntactic: it knows variable names, formats and
step identities, but nothing about domains, interpretations or integrity
constraints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class TransactionSystemError(ValueError):
    """Raised when a transaction system is malformed."""


@dataclass(frozen=True)
class StepRef:
    """A reference to step ``T_ij``: transaction index ``i``, step index ``j``.

    Both indices are **1-based**, matching the paper's notation: the first
    step of the first transaction is ``StepRef(1, 1)``.
    """

    transaction: int
    step: int

    def __post_init__(self) -> None:
        if self.transaction < 1:
            raise TransactionSystemError(
                f"transaction index must be >= 1, got {self.transaction}"
            )
        if self.step < 1:
            raise TransactionSystemError(f"step index must be >= 1, got {self.step}")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"T{self.transaction},{self.step}"

    def __repr__(self) -> str:
        return f"StepRef({self.transaction}, {self.step})"

    def as_tuple(self) -> Tuple[int, int]:
        """Return ``(transaction, step)`` as a plain tuple."""
        return (self.transaction, self.step)


@dataclass(frozen=True)
class Step:
    """The syntax of a single transaction step ``T_ij``.

    Parameters
    ----------
    variable:
        The name of the global variable ``x_ij`` accessed by this step.
    function_symbol:
        The (uninterpreted) function symbol ``f_ij``.  If ``None``, a
        canonical name ``f{i}{j}`` is assigned when the step is attached
        to a transaction.
    is_read_only:
        Syntactic annotation: the step only reads ``x_ij`` (its ``f_ij``
        is the identity on ``t_ij``).  Purely advisory; used by conflict
        analysis to avoid counting read-read conflicts.
    is_blind_write:
        Syntactic annotation: ``f_ij`` does not depend on ``t_ij`` (the
        step overwrites ``x_ij`` without looking at it).
    """

    variable: str
    function_symbol: Optional[str] = None
    is_read_only: bool = False
    is_blind_write: bool = False

    def __post_init__(self) -> None:
        if not self.variable:
            raise TransactionSystemError("step variable name must be non-empty")
        if self.is_read_only and self.is_blind_write:
            raise TransactionSystemError(
                "a step cannot be both read-only and a blind write"
            )

    def reads(self) -> bool:
        """Whether the step semantically reads its variable.

        Every step syntactically copies ``x_ij`` into ``t_ij``, but a
        blind write never uses the value, so for conflict purposes it does
        not read.
        """
        return not self.is_blind_write

    def writes(self) -> bool:
        """Whether the step semantically writes its variable."""
        return not self.is_read_only


@dataclass(frozen=True)
class Transaction:
    """A straight-line transaction: a finite sequence of :class:`Step`.

    Parameters
    ----------
    steps:
        The ordered steps of the transaction.
    name:
        Optional human-readable name (defaults to ``T{i}`` when attached
        to a system).
    """

    steps: Tuple[Step, ...]
    name: Optional[str] = None

    def __init__(self, steps: Iterable[Step], name: Optional[str] = None) -> None:
        object.__setattr__(self, "steps", tuple(steps))
        object.__setattr__(self, "name", name)
        if not self.steps:
            raise TransactionSystemError("a transaction must have at least one step")

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __getitem__(self, index: int) -> Step:
        return self.steps[index]

    @property
    def variables(self) -> Tuple[str, ...]:
        """The sequence ``(x_i1, ..., x_im_i)`` of variables accessed, in order."""
        return tuple(step.variable for step in self.steps)

    def variable_set(self) -> frozenset:
        """The set of distinct global variables touched by this transaction."""
        return frozenset(self.variables)

    def rename_variables(self, mapping: Dict[str, str]) -> "Transaction":
        """Return a copy of the transaction with variables renamed.

        Variables not present in ``mapping`` are left unchanged.  This is
        the *local renaming* operation used in Section 5.4 to characterise
        unstructured variables.
        """
        new_steps = tuple(
            Step(
                variable=mapping.get(step.variable, step.variable),
                function_symbol=step.function_symbol,
                is_read_only=step.is_read_only,
                is_blind_write=step.is_blind_write,
            )
            for step in self.steps
        )
        return Transaction(new_steps, name=self.name)


def read_step(variable: str) -> Step:
    """Convenience constructor for a pure read step on ``variable``."""
    return Step(variable=variable, is_read_only=True)


def write_step(variable: str) -> Step:
    """Convenience constructor for a blind write step on ``variable``."""
    return Step(variable=variable, is_blind_write=True)


def update_step(variable: str, function_symbol: Optional[str] = None) -> Step:
    """Convenience constructor for a read-modify-write step on ``variable``."""
    return Step(variable=variable, function_symbol=function_symbol)


@dataclass(frozen=True)
class TransactionSystem:
    """A transaction system: syntax only (Section 2, "Syntax").

    The semantics (interpretations of the ``f_ij`` and the integrity
    constraints) live in :class:`repro.core.semantics.Interpretation` and
    :class:`repro.core.semantics.IntegrityConstraint`, so that different
    semantics can be paired with the same syntax — which is exactly the
    manoeuvre the paper's adversary arguments perform.
    """

    transactions: Tuple[Transaction, ...]
    name: str = "T"

    def __init__(
        self, transactions: Iterable[Transaction], name: str = "T"
    ) -> None:
        object.__setattr__(self, "transactions", tuple(transactions))
        object.__setattr__(self, "name", name)
        if not self.transactions:
            raise TransactionSystemError(
                "a transaction system must contain at least one transaction"
            )

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def __getitem__(self, index: int) -> Transaction:
        return self.transactions[index]

    @property
    def format(self) -> Tuple[int, ...]:
        """The format ``(m_1, ..., m_n)`` of the system."""
        return tuple(len(t) for t in self.transactions)

    @property
    def num_transactions(self) -> int:
        return len(self.transactions)

    @property
    def total_steps(self) -> int:
        """Total number of steps ``M = m_1 + ... + m_n``."""
        return sum(self.format)

    def variables(self) -> frozenset:
        """The set ``V`` of global variable names used by the system."""
        return frozenset(
            step.variable for txn in self.transactions for step in txn.steps
        )

    # ------------------------------------------------------------------
    # step addressing
    # ------------------------------------------------------------------
    def step(self, ref: StepRef) -> Step:
        """Return the step ``T_ij`` addressed by ``ref`` (1-based)."""
        self._validate_ref(ref)
        return self.transactions[ref.transaction - 1].steps[ref.step - 1]

    def step_refs(self) -> List[StepRef]:
        """All step references, ordered by transaction then step index."""
        return [
            StepRef(i + 1, j + 1)
            for i, txn in enumerate(self.transactions)
            for j in range(len(txn))
        ]

    def _validate_ref(self, ref: StepRef) -> None:
        if ref.transaction > len(self.transactions):
            raise TransactionSystemError(
                f"no transaction {ref.transaction} in a system of "
                f"{len(self.transactions)} transactions"
            )
        if ref.step > len(self.transactions[ref.transaction - 1]):
            raise TransactionSystemError(
                f"transaction {ref.transaction} has "
                f"{len(self.transactions[ref.transaction - 1])} steps, "
                f"no step {ref.step}"
            )

    def contains_ref(self, ref: StepRef) -> bool:
        """Whether ``ref`` addresses a step of this system."""
        return (
            1 <= ref.transaction <= len(self.transactions)
            and 1 <= ref.step <= len(self.transactions[ref.transaction - 1])
        )

    # ------------------------------------------------------------------
    # syntactic comparison & transformation
    # ------------------------------------------------------------------
    def same_syntax(self, other: "TransactionSystem") -> bool:
        """Whether two systems have identical syntax.

        Identical syntax means the same format and the same variable
        accessed at every step (function symbols are part of the syntax
        only through their arity / position, which is determined by the
        format, so they are not compared).
        """
        if self.format != other.format:
            return False
        for mine, theirs in zip(self.transactions, other.transactions):
            if mine.variables != theirs.variables:
                return False
            for a, b in zip(mine.steps, theirs.steps):
                if a.is_read_only != b.is_read_only:
                    return False
                if a.is_blind_write != b.is_blind_write:
                    return False
        return True

    def same_format(self, other: "TransactionSystem") -> bool:
        """Whether two systems have the same format (minimum information)."""
        return self.format == other.format

    def rename_variables(self, mapping: Dict[str, str]) -> "TransactionSystem":
        """Globally rename variables throughout the system."""
        return TransactionSystem(
            (t.rename_variables(mapping) for t in self.transactions),
            name=self.name,
        )

    def canonical_function_symbols(self) -> Dict[StepRef, str]:
        """Map each step to its canonical function symbol name ``f{i}{j}``.

        When a :class:`Step` carries an explicit ``function_symbol`` it is
        kept; otherwise the canonical name is used.  Two distinct steps
        never share a canonical name.
        """
        symbols: Dict[StepRef, str] = {}
        for ref in self.step_refs():
            step = self.step(ref)
            symbols[ref] = step.function_symbol or f"f{ref.transaction}_{ref.step}"
        return symbols

    # ------------------------------------------------------------------
    # introspection helpers used by locking & conflict analysis
    # ------------------------------------------------------------------
    def steps_accessing(self, variable: str) -> List[StepRef]:
        """All step references that access the given variable."""
        return [ref for ref in self.step_refs() if self.step(ref).variable == variable]

    def transactions_accessing(self, variable: str) -> List[int]:
        """1-based indices of transactions that access ``variable``."""
        result = []
        for i, txn in enumerate(self.transactions, start=1):
            if variable in txn.variable_set():
                result.append(i)
        return result

    def conflicting_pairs(self) -> List[Tuple[StepRef, StepRef]]:
        """All unordered pairs of steps from *different* transactions that conflict.

        Two steps conflict when they access the same variable and at least
        one of them writes it.
        """
        pairs: List[Tuple[StepRef, StepRef]] = []
        refs = self.step_refs()
        for a, b in itertools.combinations(refs, 2):
            if a.transaction == b.transaction:
                continue
            sa, sb = self.step(a), self.step(b)
            if sa.variable != sb.variable:
                continue
            if sa.writes() or sb.writes():
                pairs.append((a, b))
        return pairs

    def describe(self) -> str:
        """A human-readable multi-line description of the system."""
        lines = [f"TransactionSystem {self.name!r} with format {self.format}"]
        for i, txn in enumerate(self.transactions, start=1):
            label = txn.name or f"T{i}"
            lines.append(f"  {label}:")
            for j, step in enumerate(txn.steps, start=1):
                kind = "read" if step.is_read_only else (
                    "write" if step.is_blind_write else "update"
                )
                lines.append(f"    T{i},{j}: {kind} {step.variable}")
        return "\n".join(lines)


def make_system(
    *variable_sequences: Sequence[str], name: str = "T"
) -> TransactionSystem:
    """Build a transaction system of read-modify-write steps from variable names.

    ``make_system(["x", "y"], ["y"])`` creates two transactions: the first
    with update steps on ``x`` then ``y``, the second with a single update
    step on ``y``.  This is the most common way the paper writes down
    example systems, where every step is of the general
    read-modify-write form.
    """
    transactions = [
        Transaction([update_step(v) for v in seq], name=f"T{i}")
        for i, seq in enumerate(variable_sequences, start=1)
    ]
    return TransactionSystem(transactions, name=name)
