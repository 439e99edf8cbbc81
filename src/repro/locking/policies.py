"""Locked transaction systems and locking policies (Section 5.1).

A locked transaction system ``L(T)`` extends ``T`` with a set ``LV`` of
*locking variables* and additional ``lock X`` / ``unlock X`` steps with
the paper's fixed interpretation::

    lock X    means   X := 1 if X == 0 else -1
    unlock X  means   X := 0 if X == 1 else -1

and integrity constraints "every locking variable is 0".  All the
cleverness of a locking-based concurrency control lives in the policy
``L`` — the mapping from ordinary to locked transaction systems — after
which a trivially simple scheduler (the lock-respecting scheduler of
:mod:`repro.locking.lock_manager`) suffices.

This module defines the action/locked-transaction data model, structural
predicates (well-nestedness, well-formedness, the two-phase property,
separability), and the conversion of a locked system back into an
ordinary :class:`~repro.core.transactions.TransactionSystem` +
interpretation + integrity constraint so that the entire core theory
applies to locked systems unchanged.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.core.instance import SystemInstance
from repro.core.semantics import IntegrityConstraint, Interpretation
from repro.core.transactions import (
    Step,
    StepRef,
    Transaction,
    TransactionSystem,
    update_step,
)

#: Lock states, following the paper: 0 = unlocked, 1 = locked, -1 = error.
UNLOCKED, LOCKED, LOCK_ERROR = 0, 1, -1


class LockingError(ValueError):
    """Raised when a locked transaction system is structurally invalid."""


# ----------------------------------------------------------------------
# Actions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LockAction:
    """A ``lock X`` step on locking variable ``X``."""

    variable: str

    def __str__(self) -> str:
        return f"lock {self.variable}"


@dataclass(frozen=True)
class UnlockAction:
    """An ``unlock X`` step on locking variable ``X``."""

    variable: str

    def __str__(self) -> str:
        return f"unlock {self.variable}"


@dataclass(frozen=True)
class AccessAction:
    """An original step of ``T`` carried over into ``L(T)``.

    ``original_step`` is the 1-based index of the step within its
    original transaction; ``step`` is the step's syntax.
    """

    original_step: int
    step: Step

    def __str__(self) -> str:
        return f"access {self.step.variable} (step {self.original_step})"


Action = Union[LockAction, UnlockAction, AccessAction]


# ----------------------------------------------------------------------
# Locked transactions and systems
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LockedTransaction:
    """One transaction of a locked transaction system: a sequence of actions."""

    actions: Tuple[Action, ...]
    name: Optional[str] = None

    def __init__(self, actions: Iterable[Action], name: Optional[str] = None) -> None:
        object.__setattr__(self, "actions", tuple(actions))
        object.__setattr__(self, "name", name)
        if not self.actions:
            raise LockingError("a locked transaction must have at least one action")

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    def __getitem__(self, index: int) -> Action:
        return self.actions[index]

    @property
    def lock_variables(self) -> Set[str]:
        """The locking variables this transaction locks or unlocks."""
        return {
            a.variable
            for a in self.actions
            if isinstance(a, (LockAction, UnlockAction))
        }

    def original_transaction(self) -> Transaction:
        """Recover the original (unlocked) transaction by dropping lock/unlock steps."""
        steps = [a.step for a in self.actions if isinstance(a, AccessAction)]
        return Transaction(steps, name=self.name)

    def lock_positions(self, variable: str) -> List[int]:
        """0-based positions of ``lock variable`` actions."""
        return [
            k
            for k, a in enumerate(self.actions)
            if isinstance(a, LockAction) and a.variable == variable
        ]


@dataclass(frozen=True)
class LockedTransactionSystem:
    """A locked transaction system ``L(T)``.

    ``original`` is the transaction system being protected; ``locked``
    holds one :class:`LockedTransaction` per original transaction, in the
    same order.  The locking variables ``LV`` are whatever lock/unlock
    actions mention; they are kept disjoint from the original variable
    names by prefixing (callers normally use the default prefix ``"lock:"``
    supplied by the policies).
    """

    original: TransactionSystem
    locked: Tuple[LockedTransaction, ...]
    policy_name: str = "locked"

    def __init__(
        self,
        original: TransactionSystem,
        locked: Iterable[LockedTransaction],
        policy_name: str = "locked",
    ) -> None:
        object.__setattr__(self, "original", original)
        object.__setattr__(self, "locked", tuple(locked))
        object.__setattr__(self, "policy_name", policy_name)
        if len(self.locked) != original.num_transactions:
            raise LockingError(
                "locked system must have exactly one locked transaction per "
                "original transaction"
            )
        for i, (orig, lock_txn) in enumerate(
            zip(original.transactions, self.locked), start=1
        ):
            recovered = lock_txn.original_transaction()
            if recovered.variables != orig.variables:
                raise LockingError(
                    f"locked transaction {i} does not preserve the original steps: "
                    f"{recovered.variables} != {orig.variables}"
                )
        clash = self.lock_variables() & original.variables()
        if clash:
            raise LockingError(
                f"locking variables clash with data variables: {sorted(clash)}"
            )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.locked)

    def __iter__(self):
        return iter(self.locked)

    def __getitem__(self, index: int) -> LockedTransaction:
        return self.locked[index]

    @property
    def format(self) -> Tuple[int, ...]:
        """The format of ``L(T)`` (lengths include lock/unlock steps)."""
        return tuple(len(t) for t in self.locked)

    def lock_variables(self) -> Set[str]:
        """The set ``LV`` of locking variables."""
        result: Set[str] = set()
        for txn in self.locked:
            result |= txn.lock_variables
        return result

    def action(self, ref: StepRef) -> Action:
        """The action at position ``ref`` of the locked system (1-based)."""
        return self.locked[ref.transaction - 1].actions[ref.step - 1]

    def original_ref(self, ref: StepRef) -> Optional[StepRef]:
        """Map a locked-system step ref to the original step ref it carries.

        Returns ``None`` for lock/unlock steps.
        """
        act = self.action(ref)
        if isinstance(act, AccessAction):
            return StepRef(ref.transaction, act.original_step)
        return None

    def project_schedule(self, schedule: Sequence[StepRef]) -> Tuple[StepRef, ...]:
        """Remove lock/unlock steps from a schedule of ``L(T)``.

        The result is a schedule of the original system ``T`` — this is
        the comparison the paper uses to measure a locking policy against
        ordinary schedulers (Section 5.2).
        """
        projected = []
        for ref in schedule:
            original = self.original_ref(ref)
            if original is not None:
                projected.append(original)
        return tuple(projected)

    # ------------------------------------------------------------------
    # conversion back to the core model
    # ------------------------------------------------------------------
    def as_transaction_system(self) -> TransactionSystem:
        """``L(T)`` as an ordinary transaction system (locks become variables)."""
        transactions = []
        for txn in self.locked:
            steps = []
            for act in txn.actions:
                if isinstance(act, AccessAction):
                    steps.append(act.step)
                else:
                    steps.append(update_step(act.variable))
            transactions.append(Transaction(steps, name=txn.name))
        return TransactionSystem(
            transactions, name=f"{self.policy_name}({self.original.name})"
        )

    def lock_interpretation(
        self,
        data_interpretation: Optional[Interpretation] = None,
    ) -> Interpretation:
        """An interpretation for :meth:`as_transaction_system`.

        Lock/unlock steps get the paper's fixed semantics; data steps get
        the interpretations from ``data_interpretation`` when provided
        (matching the original system) and identity otherwise.  Lock
        variables start unlocked.
        """
        system = self.as_transaction_system()
        step_functions: Dict[StepRef, object] = {}
        initial: Dict[str, object] = {v: UNLOCKED for v in self.lock_variables()}

        if data_interpretation is not None:
            initial.update(dict(data_interpretation.initial_globals))
        else:
            initial.update({v: 0 for v in self.original.variables()})

        for i, txn in enumerate(self.locked, start=1):
            # Map from position in the locked transaction to how many local
            # variables (one per step so far) have been declared — needed to
            # pick the right argument for the lock semantics.
            for j, act in enumerate(txn.actions, start=1):
                ref = StepRef(i, j)
                if isinstance(act, LockAction):
                    def do_lock(*locals_values: object) -> int:
                        current = locals_values[-1]
                        return LOCKED if current == UNLOCKED else LOCK_ERROR

                    step_functions[ref] = do_lock
                elif isinstance(act, UnlockAction):
                    def do_unlock(*locals_values: object) -> int:
                        current = locals_values[-1]
                        return UNLOCKED if current == LOCKED else LOCK_ERROR

                    step_functions[ref] = do_unlock
                else:
                    if data_interpretation is not None:
                        original_ref = StepRef(i, act.original_step)
                        phi = data_interpretation.step_functions.get(original_ref)
                        if phi is not None:
                            # The locked transaction has extra local variables
                            # (one per lock/unlock step before this access);
                            # select only the locals corresponding to original
                            # accesses so phi sees the arity it expects.
                            access_positions = [
                                k
                                for k, a in enumerate(txn.actions[:j], start=1)
                                if isinstance(a, AccessAction)
                            ]

                            def adapted(
                                *locals_values: object,
                                _phi=phi,
                                _positions=tuple(access_positions),
                            ) -> object:
                                picked = [locals_values[p - 1] for p in _positions]
                                return _phi(*picked)

                            step_functions[ref] = adapted
        return Interpretation(
            system=system,
            step_functions=step_functions,
            initial_globals=initial,
            name=f"{self.policy_name}-semantics",
        )

    def lock_constraint(self) -> IntegrityConstraint:
        """The integrity constraints of ``L(T)``: every locking variable is 0."""
        lock_vars = tuple(sorted(self.lock_variables()))
        return IntegrityConstraint(
            lambda g, _lv=lock_vars: all(g[v] == UNLOCKED for v in _lv),
            "all locking variables are unlocked",
        )

    def as_instance(
        self, data_interpretation: Optional[Interpretation] = None
    ) -> SystemInstance:
        """``L(T)`` as a full :class:`SystemInstance` (the LRS's whole world)."""
        interpretation = self.lock_interpretation(data_interpretation)
        return SystemInstance(
            system=self.as_transaction_system(),
            interpretation=interpretation,
            constraint=self.lock_constraint(),
            consistent_states=(dict(interpretation.initial_globals),),
        )


# ----------------------------------------------------------------------
# Structural predicates
# ----------------------------------------------------------------------


def is_well_nested(transaction: LockedTransaction) -> bool:
    """Every lock is eventually unlocked, never unlocked before being locked.

    The paper requires lock/unlock steps to be "well-nested in the obvious
    sense": at each point a variable is locked at most once, unlock only
    follows a matching lock, and nothing is left locked at the end.
    """
    held: Set[str] = set()
    for action in transaction.actions:
        if isinstance(action, LockAction):
            if action.variable in held:
                return False
            held.add(action.variable)
        elif isinstance(action, UnlockAction):
            if action.variable not in held:
                return False
            held.discard(action.variable)
    return not held


def is_well_formed(
    transaction: LockedTransaction, lock_name: Optional[Mapping[str, str]] = None
) -> bool:
    """Every access of ``x`` is surrounded by a (lock X, unlock X) pair (Section 5.3).

    ``lock_name`` maps data variables to their lock-bit names; by default
    the policies' convention ``"lock:" + x`` is assumed.
    """
    if not is_well_nested(transaction):
        return False
    held: Set[str] = set()
    for action in transaction.actions:
        if isinstance(action, LockAction):
            held.add(action.variable)
        elif isinstance(action, UnlockAction):
            held.discard(action.variable)
        else:
            name = (
                lock_name[action.step.variable]
                if lock_name is not None
                else default_lock_name(action.step.variable)
            )
            if name not in held:
                return False
    return True


def is_two_phase(transaction: LockedTransaction) -> bool:
    """The two-phase property: no lock step after the first unlock step."""
    seen_unlock = False
    for action in transaction.actions:
        if isinstance(action, UnlockAction):
            seen_unlock = True
        elif isinstance(action, LockAction) and seen_unlock:
            return False
    return True


def default_lock_name(variable: str) -> str:
    """The conventional lock-bit name for a data variable."""
    return f"lock:{variable}"


# ----------------------------------------------------------------------
# Policy framework
# ----------------------------------------------------------------------


class LockingPolicy(abc.ABC):
    """A locking policy: a transformation from ``T`` to ``L(T)``.

    *Separable* policies (Section 5.4) transform the system one
    transaction at a time without looking at the others; such policies
    implement :meth:`lock_transaction` and inherit :meth:`transform`.
    Non-separable policies may override :meth:`transform` directly.
    """

    name: str = "locking-policy"

    #: Whether the policy is separable in the paper's sense.
    separable: bool = True

    def transform(self, system: TransactionSystem) -> LockedTransactionSystem:
        """Apply the policy to a whole transaction system."""
        locked = [
            self.lock_transaction(txn, index=i, system=system)
            for i, txn in enumerate(system.transactions, start=1)
        ]
        return LockedTransactionSystem(system, locked, policy_name=self.name)

    def lock_transaction(
        self,
        transaction: Transaction,
        index: int,
        system: Optional[TransactionSystem] = None,
    ) -> LockedTransaction:
        """Lock a single transaction (separable policies implement this)."""
        raise NotImplementedError

    def __call__(self, system: TransactionSystem) -> LockedTransactionSystem:
        return self.transform(system)
