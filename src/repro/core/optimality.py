"""The optimality theory: Theorem 1 and its consequences (Sections 3.3-4).

Theorem 1 states that for any correct scheduler operating at information
level ``I``, its fixpoint set must satisfy ``P ⊆ ∩_{T' ∈ I} C(T')``; the
scheduler achieving equality is the *optimal scheduler* for ``I``.  The
proof is an adversary argument: any history outside the bound can be made
incorrect by swapping in an indistinguishable transaction system.

This module turns that theory into executable artefacts:

* :func:`theorem1_upper_bound` — the bound ``∩_{T' ∈ I} C(T')`` at each of
  the paper's information levels, realised through the Section-4
  characterisations (serial / SR / WSR / C).
* :func:`minimum_information_adversary` — the Theorem 2 construction: for
  any *non-serial* history, a transaction system with the same format
  (``x+1`` / ``x-1`` with an interleaved ``2x`` and integrity constraint
  ``x = 0``) for which that history is incorrect.
* :func:`syntactic_information_adversary` — the Theorem 3 construction:
  for any history outside ``SR(T)``, a same-syntax system with Herbrand
  semantics and reachable-state integrity constraints for which the
  history is incorrect.
* :func:`is_optimal`, :class:`OptimalityReport` — certify a concrete
  scheduler against the bound for its level.
* :func:`performance_partial_order` — the partial order on schedulers by
  fixpoint-set inclusion, the performance side of the information /
  performance isomorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.herbrand import HerbrandTerm, initial_term
from repro.core.information import InformationLevel, MinimumInformation
from repro.core.instance import SystemInstance
from repro.core.schedules import Schedule, all_schedules, is_serial, validate_schedule
from repro.core.schedulers import Scheduler
from repro.core.semantics import IntegrityConstraint, Interpretation, execute_serial
from repro.core.serializability import is_serializable
from repro.core.transactions import (
    Step,
    StepRef,
    Transaction,
    TransactionSystem,
    update_step,
)


# ----------------------------------------------------------------------
# Theorem 1: the information upper bound
# ----------------------------------------------------------------------


def theorem1_upper_bound(
    instance: SystemInstance, level: InformationLevel
) -> List[Schedule]:
    """The Theorem-1 bound ``∩_{T' ∈ I} C(T')`` for the given level on ``instance``.

    The intersection over the (generally infinite) level set is realised
    by the exact characterisations of Section 4: serial schedules at
    minimum information, ``SR(T)`` at syntactic information, ``WSR(T)``
    when everything but the integrity constraints is known, and ``C(T)``
    at maximum information.
    """
    return level.optimal_fixpoint_set(instance)


def optimal_fixpoint_set(
    instance: SystemInstance, level: InformationLevel
) -> List[Schedule]:
    """Alias of :func:`theorem1_upper_bound`: the optimal scheduler's fixpoint set."""
    return theorem1_upper_bound(instance, level)


def violates_theorem1(
    scheduler: Scheduler, level: InformationLevel
) -> List[Schedule]:
    """Histories in the scheduler's fixpoint set but outside the Theorem-1 bound.

    A *correct* scheduler must return an empty list; a non-empty list
    certifies (per the adversary argument) that the scheduler cannot be
    correct at that information level.
    """
    bound = {tuple(h) for h in theorem1_upper_bound(scheduler.instance, level)}
    return [h for h in scheduler.fixpoint_set() if tuple(h) not in bound]


# ----------------------------------------------------------------------
# Adversary constructions
# ----------------------------------------------------------------------


def _find_separated_steps(
    fmt: Sequence[int], history: Sequence[StepRef]
) -> Optional[Tuple[StepRef, StepRef, StepRef]]:
    """Find steps ``T_i,l``, ``T_j,*``, ``T_i,l+1`` occurring in this order.

    Any non-serial history contains two consecutive steps of some
    transaction separated by a step of a different transaction; returns
    the witnessing triple or ``None`` for serial histories.
    """
    position = {ref: k for k, ref in enumerate(history)}
    for i in range(1, len(fmt) + 1):
        for l in range(1, fmt[i - 1]):
            first = StepRef(i, l)
            second = StepRef(i, l + 1)
            for ref in history[position[first] + 1 : position[second]]:
                if ref.transaction != i:
                    return (first, ref, second)
    return None


def minimum_information_adversary(
    fmt: Sequence[int], history: Sequence[StepRef], variable: str = "x"
) -> SystemInstance:
    """The Theorem 2 adversary for a non-serial history of the given format.

    Builds a transaction system ``T'`` with the same format in which the
    separated pair of steps is interpreted as ``x <- x + 1`` and
    ``x <- x - 1``, the intervening foreign step as ``x <- 2x``, every
    other step as the identity, and the integrity constraint is
    ``x = 0``.  Each transaction alone preserves ``x = 0``, but the given
    history drives ``x`` to 1 — so the history is not in ``C(T')``.

    Raises :class:`ValueError` if the history is serial (no adversary
    exists: serial histories are correct for every system).
    """
    fmt = tuple(fmt)
    if is_serial(fmt, history):
        raise ValueError("no minimum-information adversary exists for a serial history")
    witness = _find_separated_steps(fmt, history)
    assert witness is not None  # non-serial guarantees a witness
    increment, doubler, decrement = witness

    transactions = [
        Transaction([update_step(variable) for _ in range(m)], name=f"T{i}")
        for i, m in enumerate(fmt, start=1)
    ]
    system = TransactionSystem(transactions, name="theorem2-adversary")

    def plus_one(*locals_values: int) -> int:
        return locals_values[-1] + 1

    def minus_one(*locals_values: int) -> int:
        return locals_values[-1] - 1

    def double(*locals_values: int) -> int:
        return locals_values[-1] * 2

    step_functions = {increment: plus_one, decrement: minus_one, doubler: double}
    interpretation = Interpretation(
        system=system,
        step_functions=step_functions,
        initial_globals={variable: 0},
        name="theorem2-adversary-semantics",
    )
    constraint = IntegrityConstraint(
        lambda g, _v=variable: g[_v] == 0, f"{variable} = 0"
    )
    return SystemInstance(
        system=system,
        interpretation=interpretation,
        constraint=constraint,
        consistent_states=({variable: 0},),
    )


def herbrand_concrete_interpretation(system: TransactionSystem) -> Interpretation:
    """A concrete :class:`Interpretation` realising the Herbrand semantics.

    Every global variable initially holds its own initial-value term, and
    every step function builds the term ``f_ij(t_i1, ..., t_ij)``.  Under
    this interpretation, concrete execution coincides with the symbolic
    execution of :mod:`repro.core.herbrand`.
    """
    symbols = system.canonical_function_symbols()
    step_functions = {}
    for ref in system.step_refs():
        step = system.step(ref)
        if step.is_read_only:
            continue  # identity default
        symbol = symbols[ref]

        def build_term(*args: HerbrandTerm, _symbol: str = symbol, _blind: bool = step.is_blind_write) -> HerbrandTerm:
            used = args[:-1] if _blind else args
            return HerbrandTerm(_symbol, tuple(used))

        step_functions[ref] = build_term
    initial = {v: initial_term(v) for v in system.variables()}
    return Interpretation(
        system=system,
        step_functions=step_functions,
        initial_globals=initial,
        name="herbrand",
    )


def reachable_herbrand_states(
    system: TransactionSystem,
    interpretation: Interpretation,
    max_concatenation_length: Optional[int] = None,
) -> Set[Tuple[Tuple[str, HerbrandTerm], ...]]:
    """Global states reachable from the initial state by serial concatenations.

    These are the integrity constraints of the Theorem 3 adversary:
    ``(a_1, ..., a_k) ∈ IC`` iff some concatenation of serial transaction
    executions (with repetitions and omissions) maps the initial values to
    ``(a_1, ..., a_k)``.  The concatenation length is bounded by
    ``max_concatenation_length`` (default ``n + 2``), which is exhaustive
    for the small systems used in the experiments.
    """
    if max_concatenation_length is None:
        max_concatenation_length = system.num_transactions + 2
    states: Set[Tuple[Tuple[str, HerbrandTerm], ...]] = set()
    indices = range(1, system.num_transactions + 1)
    for length in range(max_concatenation_length + 1):
        for sequence in itertools.product(indices, repeat=length):
            final = execute_serial(
                system,
                interpretation,
                list(sequence),
                allow_repetitions=True,
            ).globals_
            states.add(tuple(sorted(final.items())))
    return states


def syntactic_information_adversary(
    system: TransactionSystem,
    history: Sequence[StepRef],
    max_concatenation_length: Optional[int] = None,
) -> SystemInstance:
    """The Theorem 3 adversary for a history outside ``SR(T)``.

    Builds an instance with the same syntax as ``system``, Herbrand
    semantics, and integrity constraints "the global state is reachable
    from the initial values by a concatenation of serial transaction
    executions".  All transactions are individually correct under this
    constraint, but any non-serializable history ends in an unreachable
    (hence inconsistent) state.

    Raises :class:`ValueError` if the history *is* Herbrand-serializable
    (then it is correct for every same-syntax system and no adversary
    exists).
    """
    history = validate_schedule(system, history)
    if is_serializable(system, history):
        raise ValueError(
            "no syntactic-information adversary exists for a serializable history"
        )
    interpretation = herbrand_concrete_interpretation(system)
    reachable = reachable_herbrand_states(
        system, interpretation, max_concatenation_length
    )

    def in_reachable(globals_: Mapping[str, object]) -> bool:
        return tuple(sorted(globals_.items())) in reachable

    constraint = IntegrityConstraint(
        in_reachable, "state reachable by serial concatenations"
    )
    return SystemInstance(
        system=system,
        interpretation=interpretation,
        constraint=constraint,
        consistent_states=(dict(interpretation.initial_globals),),
    )


# ----------------------------------------------------------------------
# Optimality certification & the performance partial order
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OptimalityReport:
    """The result of comparing a scheduler's fixpoint set against its level's bound."""

    scheduler_name: str
    level_name: str
    fixpoint_size: int
    bound_size: int
    is_correct: bool
    is_optimal: bool
    missing_from_fixpoint: Tuple[Schedule, ...]
    exceeding_bound: Tuple[Schedule, ...]

    def summary(self) -> str:
        """One line suitable for experiment logs."""
        status = "OPTIMAL" if self.is_optimal else (
            "correct, sub-optimal" if self.is_correct else "INCORRECT"
        )
        return (
            f"{self.scheduler_name} @ {self.level_name}: |P| = {self.fixpoint_size}, "
            f"bound = {self.bound_size} -> {status}"
        )


def certify(
    scheduler: Scheduler, level: Optional[InformationLevel] = None
) -> OptimalityReport:
    """Certify a scheduler against the Theorem-1 bound for a level.

    When ``level`` is omitted the scheduler's own declared
    ``information_level`` is used.
    """
    level = level or scheduler.information_level
    bound = [tuple(h) for h in theorem1_upper_bound(scheduler.instance, level)]
    bound_set = set(bound)
    fixpoint = [tuple(h) for h in scheduler.fixpoint_set()]
    fixpoint_set_ = set(fixpoint)
    exceeding = tuple(h for h in fixpoint if h not in bound_set)
    missing = tuple(h for h in bound if h not in fixpoint_set_)
    correct = scheduler.is_correct()
    return OptimalityReport(
        scheduler_name=scheduler.name,
        level_name=level.name,
        fixpoint_size=len(fixpoint),
        bound_size=len(bound),
        is_correct=correct,
        is_optimal=correct and not exceeding and not missing,
        missing_from_fixpoint=missing,
        exceeding_bound=exceeding,
    )


def is_optimal(
    scheduler: Scheduler, level: Optional[InformationLevel] = None
) -> bool:
    """Whether the scheduler is the optimal scheduler for the level."""
    return certify(scheduler, level).is_optimal


def performs_better(a: Scheduler, b: Scheduler) -> bool:
    """Whether ``a`` performs strictly better than ``b`` (fixpoint strict superset)."""
    pa = {tuple(h) for h in a.fixpoint_set()}
    pb = {tuple(h) for h in b.fixpoint_set()}
    return pb < pa


def performance_partial_order(
    schedulers: Sequence[Scheduler],
) -> Dict[Tuple[str, str], str]:
    """Pairwise comparison of schedulers by fixpoint-set inclusion.

    Returns a mapping from ``(name_a, name_b)`` to one of ``"better"``,
    ``"worse"``, ``"equal"`` or ``"incomparable"`` describing how ``a``'s
    fixpoint set relates to ``b``'s.
    """
    sets = {s.name: {tuple(h) for h in s.fixpoint_set()} for s in schedulers}
    result: Dict[Tuple[str, str], str] = {}
    for a, b in itertools.permutations(schedulers, 2):
        pa, pb = sets[a.name], sets[b.name]
        if pa == pb:
            relation = "equal"
        elif pb < pa:
            relation = "better"
        elif pa < pb:
            relation = "worse"
        else:
            relation = "incomparable"
        result[(a.name, b.name)] = relation
    return result
