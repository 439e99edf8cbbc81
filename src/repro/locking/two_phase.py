"""Two-phase locking and its variants (Sections 5.2 and 5.4).

* :class:`TwoPhaseLockingPolicy` — the 2PL policy of [Eswaran et al. 76]
  as described in Section 5.2: associate a locking variable with every
  data variable, place locks as late and unlocks as early as possible
  subject to "no lock after the first unlock" (Figure 2).
* :class:`TwoPhasePrimePolicy` — the 2PL' variant of Section 5.4
  (Figure 5): two-phase lock every variable except a distinguished one
  ``x``, release ``x``'s lock right after its last usage, and use an
  auxiliary lock ``X'`` to remain correct.  2PL' is correct, separable,
  and strictly better than 2PL — the paper's witness that 2PL is not
  optimal among separable policies once a variable may be distinguished.
* :class:`TwoPhaseExceptExclusivePolicy` — the "trivial reason" 2PL is
  not optimal as a locking policy: variables accessed by only one
  transaction need no locks at all.  This policy uses global knowledge of
  the system (it is not separable).
* :class:`NoLockingPolicy` — inserts no locks; the incorrect baseline
  that shows what locking is buying.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.transactions import Step, Transaction, TransactionSystem
from repro.locking.policies import (
    AccessAction,
    Action,
    LockAction,
    LockedTransaction,
    LockedTransactionSystem,
    LockingPolicy,
    UnlockAction,
    default_lock_name,
)


def _first_access_order(transaction: Transaction) -> List[str]:
    """Variables of the transaction ordered by their first access."""
    seen: List[str] = []
    for step in transaction.steps:
        if step.variable not in seen:
            seen.append(step.variable)
    return seen


def two_phase_lock(
    transaction: Transaction,
    lock_variables: Optional[Set[str]] = None,
    lock_name=default_lock_name,
) -> LockedTransaction:
    """Apply the 2PL transformation of Figure 2 to a single transaction.

    ``lock_variables`` restricts locking to a subset of the transaction's
    variables (all of them by default); ``lock_name`` maps a data variable
    to its lock-bit name.

    Placement follows the paper's rule (b): each lock is inserted
    immediately before the variable's first access (as late as possible),
    and each unlock immediately after the later of the variable's last
    access and the transaction's final lock step (as early as possible
    while keeping the two-phase rule (a)).
    """
    variables = set(transaction.variable_set())
    if lock_variables is not None:
        variables &= set(lock_variables)

    # Pass 1: locks immediately before first accesses.
    actions: List[Action] = []
    locked_so_far: Set[str] = set()
    for j, step in enumerate(transaction.steps, start=1):
        if step.variable in variables and step.variable not in locked_so_far:
            actions.append(LockAction(lock_name(step.variable)))
            locked_so_far.add(step.variable)
        actions.append(AccessAction(j, step))

    # Pass 2: unlocks after max(last access, last lock) per variable.
    last_lock_index = max(
        (k for k, a in enumerate(actions) if isinstance(a, LockAction)),
        default=-1,
    )
    last_access_index: Dict[str, int] = {}
    for k, action in enumerate(actions):
        if isinstance(action, AccessAction) and action.step.variable in variables:
            last_access_index[action.step.variable] = k

    unlock_after: Dict[int, List[str]] = {}
    for variable in _first_access_order(transaction):
        if variable not in variables:
            continue
        position = max(last_access_index[variable], last_lock_index)
        unlock_after.setdefault(position, []).append(variable)

    result: List[Action] = []
    for k, action in enumerate(actions):
        result.append(action)
        for variable in unlock_after.get(k, []):
            result.append(UnlockAction(lock_name(variable)))
    return LockedTransaction(result, name=transaction.name)


class TwoPhaseLockingPolicy(LockingPolicy):
    """The two-phase locking policy 2PL (Figure 2)."""

    name = "2PL"
    separable = True

    def __init__(self, lock_name=default_lock_name) -> None:
        self.lock_name = lock_name

    def lock_transaction(
        self,
        transaction: Transaction,
        index: int,
        system: Optional[TransactionSystem] = None,
    ) -> LockedTransaction:
        return two_phase_lock(transaction, lock_name=self.lock_name)


def two_phase_prime_lock(
    transaction: Transaction,
    distinguished: str,
    lock_name=default_lock_name,
    auxiliary_suffix: str = "'",
) -> LockedTransaction:
    """Apply the 2PL' transformation of Section 5.4 / Figure 5 to one transaction.

    Rules (for the distinguished variable ``x``, auxiliary lock ``X'``):

    1. two-phase lock every variable except ``x``;
    2. ``x`` itself is still locked before its first usage, but unlocked
       right after its last usage (earlier than 2PL would allow);
    3. after the first usage of ``x``: insert the pair
       ``lock X' ; unlock X'``;
    4. after the last usage of ``x``: insert ``lock X'`` followed by
       ``unlock X``;
    5. after the transaction's last lock step: insert ``unlock X'``.

    Transactions that never touch ``x`` are locked exactly as by 2PL.
    """
    if distinguished not in transaction.variable_set():
        return two_phase_lock(transaction, lock_name=lock_name)

    aux = lock_name(distinguished) + auxiliary_suffix
    x_lock = lock_name(distinguished)

    # Two-phase lock everything except the distinguished variable first.
    others = transaction.variable_set() - {distinguished}
    base = two_phase_lock(transaction, lock_variables=others, lock_name=lock_name)

    access_positions = [
        k
        for k, action in enumerate(base.actions)
        if isinstance(action, AccessAction) and action.step.variable == distinguished
    ]
    first_access = access_positions[0]
    last_access = access_positions[-1]

    actions: List[Action] = []
    for k, action in enumerate(base.actions):
        if k == first_access:
            actions.append(LockAction(x_lock))
        actions.append(action)
        if k == first_access:
            actions.append(LockAction(aux))
            actions.append(UnlockAction(aux))
        if k == last_access:
            actions.append(LockAction(aux))
            actions.append(UnlockAction(x_lock))

    # Rule 5: unlock the auxiliary variable after the final lock step.
    last_lock_index = max(
        k for k, action in enumerate(actions) if isinstance(action, LockAction)
    )
    actions.insert(last_lock_index + 1, UnlockAction(aux))

    # Single-usage special case: first == last inserts two lock-aux pulses
    # back to back (lock aux, unlock aux, lock aux, unlock x ... unlock aux)
    # which is well-nested and correct; nothing further to adjust.
    return LockedTransaction(actions, name=transaction.name)


class TwoPhasePrimePolicy(LockingPolicy):
    """The 2PL' policy: 2PL with one distinguished variable released early."""

    separable = True

    def __init__(
        self,
        distinguished: str,
        lock_name=default_lock_name,
        auxiliary_suffix: str = "'",
    ) -> None:
        self.distinguished = distinguished
        self.lock_name = lock_name
        self.auxiliary_suffix = auxiliary_suffix
        self.name = f"2PL'[{distinguished}]"

    def lock_transaction(
        self,
        transaction: Transaction,
        index: int,
        system: Optional[TransactionSystem] = None,
    ) -> LockedTransaction:
        return two_phase_prime_lock(
            transaction,
            self.distinguished,
            lock_name=self.lock_name,
            auxiliary_suffix=self.auxiliary_suffix,
        )


def exclusive_variables(system: TransactionSystem) -> Set[str]:
    """Variables accessed by exactly one transaction of the system."""
    return {
        v
        for v in system.variables()
        if len(system.transactions_accessing(v)) == 1
    }


class TwoPhaseExceptExclusivePolicy(LockingPolicy):
    """2PL applied only to variables shared by two or more transactions.

    This is the Section 5.4 counterexample showing 2PL is not optimal as
    a locking policy: a variable touched by a single transaction needs no
    lock, and skipping it can only enlarge the set of delay-free
    schedules while remaining correct.  The policy inspects the whole
    system to find the exclusive variables, so it is *not* separable.
    """

    name = "2PL-minus-exclusive"
    separable = False

    def __init__(self, lock_name=default_lock_name) -> None:
        self.lock_name = lock_name

    def transform(self, system: TransactionSystem) -> LockedTransactionSystem:
        shared = system.variables() - exclusive_variables(system)
        locked = [
            two_phase_lock(txn, lock_variables=shared, lock_name=self.lock_name)
            for txn in system.transactions
        ]
        return LockedTransactionSystem(system, locked, policy_name=self.name)


class NoLockingPolicy(LockingPolicy):
    """The degenerate policy that inserts no locks at all.

    Useful as a baseline: the lock-respecting scheduler then passes every
    schedule, so any consistency violations of the underlying system show
    up undamped.
    """

    name = "no-locking"
    separable = True

    def lock_transaction(
        self,
        transaction: Transaction,
        index: int,
        system: Optional[TransactionSystem] = None,
    ) -> LockedTransaction:
        return LockedTransaction(
            [AccessAction(j, step) for j, step in enumerate(transaction.steps, start=1)],
            name=transaction.name,
        )
