"""The lock-respecting scheduler (LRS) and locking-policy performance (Section 5.1-5.2).

After a locking policy has transformed ``T`` into ``L(T)``, concurrency
control is entrusted to a "very simplistic scheduler" that sees only the
lock/unlock steps and the lock integrity constraints: the
*lock-respecting scheduler*.  A request stream passes without delay iff
every ``lock`` step finds its variable unlocked when it arrives; other
streams are delayed (and, on deadlock, rearranged into a serial
execution, which is always lock-feasible because locked transactions are
well nested).

Performance of a locking policy is measured, as for ordinary schedulers,
by the set of schedules it passes without delay — but compared on the
original system ``T``, i.e. with the lock/unlock steps projected away
(Section 5.2).  :func:`policy_performance` computes that set exhaustively
for small systems.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.instance import SystemInstance
from repro.core.schedules import (
    Schedule,
    all_schedules,
    serial_schedule,
    validate_schedule,
)
from repro.core.schedulers import Scheduler, first_appearance_serial_order
from repro.core.semantics import Interpretation
from repro.core.transactions import StepRef
from repro.locking.policies import (
    AccessAction,
    LockAction,
    LockedTransactionSystem,
    UnlockAction,
    LOCKED,
    UNLOCKED,
)


class LockTable:
    """The lock manager's state: which locking variable is currently held, and by whom."""

    def __init__(self) -> None:
        self._holder: Dict[str, int] = {}

    def holder(self, variable: str) -> Optional[int]:
        """The transaction currently holding ``variable`` (``None`` if free)."""
        return self._holder.get(variable)

    def acquire(self, variable: str, transaction: int) -> bool:
        """Try to acquire; returns ``False`` (and changes nothing) if held."""
        if variable in self._holder:
            return False
        self._holder[variable] = transaction
        return True

    def release(self, variable: str, transaction: int) -> bool:
        """Release a lock held by ``transaction``; ``False`` if not held by it."""
        if self._holder.get(variable) != transaction:
            return False
        del self._holder[variable]
        return True

    def held_by(self, transaction: int) -> Set[str]:
        """All locking variables currently held by a transaction."""
        return {v for v, t in self._holder.items() if t == transaction}

    def __len__(self) -> int:
        return len(self._holder)


def is_lock_feasible(
    locked_system: LockedTransactionSystem, schedule: Sequence[StepRef]
) -> bool:
    """Whether a schedule of ``L(T)`` never hits a lock conflict.

    Equivalently (given well-nested locked transactions): executing the
    schedule under the lock semantics never drives a locking variable to
    the error value, so the final state satisfies the lock integrity
    constraints and the schedule is in ``C(L(T))``.
    """
    table = LockTable()
    for ref in schedule:
        action = locked_system.action(ref)
        if isinstance(action, LockAction):
            if not table.acquire(action.variable, ref.transaction):
                return False
        elif isinstance(action, UnlockAction):
            if not table.release(action.variable, ref.transaction):
                return False
    return True


def lock_feasible_schedules(
    locked_system: LockedTransactionSystem,
) -> List[Schedule]:
    """All complete schedules of ``L(T)`` with no lock conflict (small systems only).

    Enumeration prunes infeasible prefixes, so it is far cheaper than
    filtering ``H(L(T))`` after the fact.
    """
    fmt = locked_system.format
    n = len(fmt)
    results: List[Schedule] = []

    def extend(
        counters: Tuple[int, ...],
        prefix: Tuple[StepRef, ...],
        table: Dict[str, int],
    ) -> None:
        if all(counters[i] == fmt[i] for i in range(n)):
            results.append(prefix)
            return
        for i in range(n):
            if counters[i] >= fmt[i]:
                continue
            ref = StepRef(i + 1, counters[i] + 1)
            action = locked_system.action(ref)
            new_table = table
            if isinstance(action, LockAction):
                if action.variable in table:
                    continue  # lock conflict: prune
                new_table = dict(table)
                new_table[action.variable] = i + 1
            elif isinstance(action, UnlockAction):
                if table.get(action.variable) != i + 1:
                    continue  # would be a lock error: prune
                new_table = dict(table)
                del new_table[action.variable]
            new_counters = counters[:i] + (counters[i] + 1,) + counters[i + 1 :]
            extend(new_counters, prefix + (ref,), new_table)

    extend(tuple(0 for _ in fmt), (), {})
    return results


def policy_output_schedules(
    locked_system: LockedTransactionSystem,
) -> Set[Tuple[StepRef, ...]]:
    """The lock-feasible schedules of ``L(T)`` projected onto the original steps.

    This is the Section 5.2 performance measure of a locking policy: the
    set of request orderings of ``T`` that the lock-respecting scheduler
    can pass without any delay (for *some* placement of the inserted
    lock/unlock requests).
    """
    return {
        locked_system.project_schedule(s)
        for s in lock_feasible_schedules(locked_system)
    }


def policy_performance(locked_system: LockedTransactionSystem) -> List[Schedule]:
    """Like :func:`policy_output_schedules` but returned as a sorted list."""
    return sorted(
        policy_output_schedules(locked_system),
        key=lambda s: tuple(ref.as_tuple() for ref in s),
    )


class LockRespectingScheduler(Scheduler):
    """The LRS: the optimal scheduler for the lock-only level of information.

    Its world is the locked system ``L(T)``: it sees lock/unlock steps and
    the lock integrity constraints, nothing else.  Its fixpoint set is the
    set of lock-feasible schedules of ``L(T)``; rejected histories are
    executed with the minimum delays a greedy lock manager would impose
    (blocked transactions wait; on deadlock the remaining work is
    serialised by first appearance).
    """

    def __init__(
        self,
        locked_system: LockedTransactionSystem,
        data_interpretation: Optional[Interpretation] = None,
        instance: Optional[SystemInstance] = None,
    ) -> None:
        self.locked_system = locked_system
        if instance is None:
            instance = locked_system.as_instance(data_interpretation)
        super().__init__(instance)

    def accepts(self, history: Sequence[StepRef]) -> bool:
        return is_lock_feasible(self.locked_system, history)

    def reschedule(self, history: Sequence[StepRef]) -> Schedule:
        """Greedy lock-manager execution of a conflicting history.

        Requests are granted in arrival order when possible; a transaction
        whose request cannot be granted blocks, and its subsequent
        requests queue behind it.  Unlocks wake blocked transactions.  If
        a deadlock prevents the greedy execution from completing, the
        whole history is instead serialised by first appearance — always
        lock-feasible because locked transactions are well nested.
        """
        history = validate_schedule(self.system, history)
        pending: Dict[int, List[StepRef]] = {}
        for ref in history:
            pending.setdefault(ref.transaction, []).append(ref)

        table = LockTable()
        executed: List[StepRef] = []
        cursor: Dict[int, int] = {i: 0 for i in pending}

        def try_execute(ref: StepRef) -> bool:
            action = self.locked_system.action(ref)
            if isinstance(action, LockAction):
                return table.acquire(action.variable, ref.transaction)
            if isinstance(action, UnlockAction):
                return table.release(action.variable, ref.transaction)
            return True

        progressed = True
        while progressed:
            progressed = False
            for ref in history:
                txn = ref.transaction
                queue = pending[txn]
                if cursor[txn] >= len(queue):
                    continue
                next_ref = queue[cursor[txn]]
                if next_ref != ref:
                    continue  # not this transaction's next request yet
                if try_execute(next_ref):
                    executed.append(next_ref)
                    cursor[txn] += 1
                    progressed = True
            # loop again: unlock steps executed this round may unblock others

        if len(executed) == len(history):
            return tuple(executed)
        # Deadlock: fall back to the first-appearance serial schedule.
        return super().reschedule(history)


def lrs_fixpoint_size(locked_system: LockedTransactionSystem) -> int:
    """``|P|`` of the LRS on ``L(T)`` — the number of lock-feasible schedules."""
    return len(lock_feasible_schedules(locked_system))
