"""A full transaction-system *instance*: syntax + semantics + integrity constraints.

The paper's definitions deliberately separate the three components so the
adversary arguments can vary one while holding the others fixed.  For
executable work, however, it is convenient to bundle them: a
:class:`SystemInstance` is everything a maximum-information scheduler
would know about the system — the syntax, the concrete interpretations,
the integrity constraints, and a family of consistent initial states to
quantify over when checking correctness of schedules.

``C(T)``, the set of correct schedules, is defined relative to an
instance: a schedule is correct if executing it maps every consistent
state into a consistent state.  The quantification over all consistent
states is realised over the instance's ``consistent_states`` family
(exact for the finite families used in the experiments; a documented
approximation otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.schedules import Schedule, all_schedules, validate_schedule
from repro.core.semantics import (
    ALWAYS_CONSISTENT,
    IntegrityConstraint,
    Interpretation,
    preserves_consistency,
    transaction_is_correct,
)
from repro.core.transactions import StepRef, TransactionSystem


class BasicAssumptionError(ValueError):
    """Raised when an instance violates the paper's basic assumption.

    The basic assumption is that every transaction, run alone, preserves
    consistency.  Instances that break it make the whole framework vacuous,
    so construction fails loudly.
    """


@dataclass(frozen=True)
class SystemInstance:
    """A transaction system together with its semantics and integrity constraints.

    Parameters
    ----------
    system:
        The syntactic transaction system.
    interpretation:
        Concrete interpretations of every step and the default initial
        global state.
    constraint:
        The integrity constraints; defaults to the trivially true
        constraint.
    consistent_states:
        A finite family of consistent global states over which
        "preserves consistency from any consistent state" is checked.
        Defaults to the interpretation's initial state.
    check_basic_assumption:
        When true (default), construction verifies that every transaction
        individually preserves consistency on the supplied states.
    """

    system: TransactionSystem
    interpretation: Interpretation
    constraint: IntegrityConstraint = ALWAYS_CONSISTENT
    consistent_states: Tuple[Mapping[str, Any], ...] = ()
    check_basic_assumption: bool = True

    def __post_init__(self) -> None:
        if self.interpretation.system is not self.system and not (
            self.interpretation.system.format == self.system.format
        ):
            raise ValueError("interpretation does not match the system's format")
        states = self.consistent_states or (self.interpretation.initial_globals,)
        # normalise to a tuple of plain dicts
        object.__setattr__(
            self, "consistent_states", tuple(dict(s) for s in states)
        )
        for state in self.consistent_states:
            if not self.constraint.holds(state):
                raise ValueError(
                    f"supplied state {state!r} does not satisfy the integrity constraints"
                )
        if self.check_basic_assumption:
            for i in range(1, self.system.num_transactions + 1):
                if not transaction_is_correct(
                    self.system,
                    self.interpretation,
                    self.constraint,
                    i,
                    self.consistent_states,
                ):
                    raise BasicAssumptionError(
                        f"transaction T{i} does not preserve consistency when run alone"
                    )

    # ------------------------------------------------------------------
    # correctness of schedules: C(T)
    # ------------------------------------------------------------------
    def is_correct_schedule(self, schedule: Sequence[StepRef]) -> bool:
        """Whether the schedule preserves consistency from every consistent state."""
        schedule = validate_schedule(self.system, schedule)
        return preserves_consistency(
            self.system,
            self.interpretation,
            self.constraint,
            schedule,
            self.consistent_states,
        )

    def correct_schedules(self) -> List[Schedule]:
        """Enumerate ``C(T)`` (small formats only)."""
        return [h for h in all_schedules(self.system) if self.is_correct_schedule(h)]

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def format(self) -> Tuple[int, ...]:
        return self.system.format

    def with_constraint(
        self,
        constraint: IntegrityConstraint,
        consistent_states: Optional[Iterable[Mapping[str, Any]]] = None,
        check_basic_assumption: bool = True,
    ) -> "SystemInstance":
        """A copy of the instance with different integrity constraints."""
        return SystemInstance(
            system=self.system,
            interpretation=self.interpretation,
            constraint=constraint,
            consistent_states=tuple(consistent_states or ()),
            check_basic_assumption=check_basic_assumption,
        )
