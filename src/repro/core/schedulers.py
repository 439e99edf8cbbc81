"""Schedulers and fixpoint sets (Sections 3.2-3.3, 4).

A *scheduler* for a transaction system ``T`` is a mapping
``S : H -> C(T)`` from arbitrary schedules (streams of arriving requests)
to correct schedules.  A scheduler is *correct* if every schedule it
produces is correct.  Its *performance* is measured by its fixpoint set

    ``P = { h in H : S(h) = h }``

— the request streams it passes without introducing any delay.

This module provides:

* the :class:`Scheduler` base class with the ``P``/correctness machinery,
* the concrete schedulers the paper proves optimal at each information
  level — :class:`SerialScheduler` (Theorem 2),
  :class:`SerializationScheduler` (Theorem 3),
  :class:`WeakSerializationScheduler` (Theorem 4) and
  :class:`MaximumInformationScheduler` — plus
  :class:`ConflictSerializationScheduler`, the practical approximation of
  serialization used by real systems and by the online engine,
* helpers :func:`fixpoint_set` and :func:`is_correct_scheduler` for
  exhaustively validating schedulers over small formats.

Every non-fixpoint history is rescheduled to the serial schedule that
runs transactions in order of their first request in the history: this
target is always correct (basic assumption) and models the paper's
"delay some requests until later-arriving ones have run".
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.information import (
    InformationLevel,
    MaximumInformation,
    MinimumInformation,
    SemanticInformation,
    SyntacticInformation,
)
from repro.core.instance import SystemInstance
from repro.core.schedules import (
    Schedule,
    all_schedules,
    is_serial,
    serial_schedule,
    validate_schedule,
)
from repro.core.serializability import (
    is_conflict_serializable,
    is_serializable,
    is_weakly_serializable,
)
from repro.core.transactions import StepRef, TransactionSystem


def first_appearance_serial_order(
    system: TransactionSystem, history: Sequence[StepRef]
) -> List[int]:
    """The serial order that runs transactions by first appearance in ``history``."""
    seen: List[int] = []
    for ref in history:
        if ref.transaction not in seen:
            seen.append(ref.transaction)
    for i in range(1, system.num_transactions + 1):
        if i not in seen:
            seen.append(i)
    return seen


class Scheduler(abc.ABC):
    """Base class: a mapping from histories to correct schedules.

    Subclasses implement :meth:`accepts`, the membership predicate of the
    intended fixpoint set.  The default :meth:`schedule` passes accepted
    histories unchanged and rewrites everything else into the
    first-appearance serial schedule.
    """

    #: The information level this scheduler is designed for (used by the
    #: optimality analysis; informational otherwise).
    information_level: InformationLevel = MaximumInformation()

    def __init__(self, instance: SystemInstance) -> None:
        self.instance = instance
        self.system = instance.system

    # ------------------------------------------------------------------
    # the scheduler mapping
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def accepts(self, history: Sequence[StepRef]) -> bool:
        """Whether the history belongs to this scheduler's fixpoint set."""

    def schedule(self, history: Sequence[StepRef]) -> Schedule:
        """Map an arriving history to the schedule actually executed."""
        history = validate_schedule(self.system, history)
        if self.accepts(history):
            return history
        return self.reschedule(history)

    def reschedule(self, history: Sequence[StepRef]) -> Schedule:
        """The correct schedule substituted for a rejected history."""
        order = first_appearance_serial_order(self.system, history)
        return serial_schedule(self.system.format, order)

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def fixpoint_set(self) -> List[Schedule]:
        """Enumerate the fixpoint set ``P`` (small formats only)."""
        return [h for h in all_schedules(self.system) if self.schedule(h) == h]

    def is_correct(self) -> bool:
        """Exhaustively verify ``S(H) ⊆ C(T)`` for this scheduler (small formats only)."""
        return all(
            self.instance.is_correct_schedule(self.schedule(h))
            for h in all_schedules(self.system)
        )

    def delay_count(self, history: Sequence[StepRef]) -> int:
        """How many requests are displaced when this history is scheduled.

        Zero for fixpoint histories.  For a rescheduled history this is
        the number of steps whose position changes — a simple proxy for
        the waiting the scheduler imposes (Section 6).
        """
        produced = self.schedule(history)
        return sum(1 for a, b in zip(history, produced) if a != b)

    @property
    def name(self) -> str:
        return type(self).__name__


class SerialScheduler(Scheduler):
    """The serial scheduler: optimal at minimum information (Theorem 2).

    Its fixpoint set is exactly the set of serial schedules; every other
    history is delayed into a serial execution.
    """

    information_level = MinimumInformation()

    def accepts(self, history: Sequence[StepRef]) -> bool:
        return is_serial(self.system, history)


class SerializationScheduler(Scheduler):
    """The serialization scheduler: optimal at complete syntactic information (Theorem 3).

    Its fixpoint set is ``SR(T)`` — histories whose Herbrand execution
    results coincide with those of some serial schedule.
    """

    information_level = SyntacticInformation()

    def accepts(self, history: Sequence[StepRef]) -> bool:
        return is_serializable(self.system, history)


class ConflictSerializationScheduler(Scheduler):
    """A scheduler whose fixpoint set is the conflict-serializable histories.

    Conflict serializability is the practically enforceable subset of
    ``SR(T)``; this scheduler is correct but in general *not* optimal for
    syntactic information, which is exactly the gap the optimality theory
    makes visible (it is the baseline of the delay-statistics tables).
    """

    information_level = SyntacticInformation()

    def accepts(self, history: Sequence[StepRef]) -> bool:
        return is_conflict_serializable(self.system, history)


class WeakSerializationScheduler(Scheduler):
    """The weak-serialization scheduler: optimal with all information but the ICs (Theorem 4).

    Its fixpoint set is ``WSR(T)``; the membership test uses the
    instance's concrete interpretation and consistent-state family.
    """

    def __init__(
        self,
        instance: SystemInstance,
        max_concatenation_length: Optional[int] = None,
    ) -> None:
        super().__init__(instance)
        self.max_concatenation_length = max_concatenation_length
        self.information_level = SemanticInformation(max_concatenation_length)

    def accepts(self, history: Sequence[StepRef]) -> bool:
        return is_weakly_serializable(
            self.system,
            self.instance.interpretation,
            history,
            self.instance.consistent_states,
            self.max_concatenation_length,
        )


class MaximumInformationScheduler(Scheduler):
    """The scheduler with complete information: fixpoint set ``C(T)``.

    Realisable "in principle at least" (Section 4.1); here it is realised
    by checking consistency preservation over the instance's
    consistent-state family.
    """

    information_level = MaximumInformation()

    def accepts(self, history: Sequence[StepRef]) -> bool:
        return self.instance.is_correct_schedule(history)


class FixedSetScheduler(Scheduler):
    """A scheduler defined directly by an arbitrary target fixpoint set.

    Used by the optimality machinery and by tests to construct candidate
    schedulers (e.g. hypothetical "better than optimal" schedulers, which
    Theorem 1 then shows must be incorrect).
    """

    def __init__(self, instance: SystemInstance, accepted: Iterable[Schedule]) -> None:
        super().__init__(instance)
        self._accepted: Set[Schedule] = {tuple(h) for h in accepted}

    def accepts(self, history: Sequence[StepRef]) -> bool:
        return tuple(history) in self._accepted


def fixpoint_set(scheduler: Scheduler) -> List[Schedule]:
    """The fixpoint set of a scheduler (exhaustive; small formats only)."""
    return scheduler.fixpoint_set()


def is_correct_scheduler(scheduler: Scheduler) -> bool:
    """Exhaustively verify correctness of a scheduler on its instance."""
    return scheduler.is_correct()
