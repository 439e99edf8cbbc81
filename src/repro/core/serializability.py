"""Serializability theory: SR(T), WSR(T), conflict and view serializability.

The paper works with two serializability notions plus the classical
refinements that later literature standardised:

* **(Herbrand / final-state) serializability** ``SR(T)`` (Section 4.2):
  a schedule is serializable if its execution results equal those of some
  serial schedule *under the Herbrand semantics*.  By Herbrand's theorem
  this means equality under every interpretation, so SR(T) depends only
  on the syntax of ``T``.
* **weak serializability** ``WSR(T)`` (Section 4.3): a schedule is weakly
  serializable if, from any starting state, its execution ends in a state
  achievable by *some concatenation of serial transaction executions,
  possibly with repetitions and omissions*, from that same state.  This
  uses the concrete interpretations (semantic information) but not the
  integrity constraints, and ``SR(T) ⊆ WSR(T)``.
* **conflict serializability** and **view serializability** — the
  standard syntactic approximations.  Conflict serializability is the
  notion enforced by the practical schedulers in :mod:`repro.engine`;
  it implies Herbrand serializability for the general read-modify-write
  step shape of the paper's model.

This module provides decision procedures for all four, set enumeration
over small formats, and conflict-graph construction.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.herbrand import herbrand_final_state
from repro.core.schedules import (
    Schedule,
    all_schedules,
    is_serial,
    serial_schedule,
    validate_schedule,
)
from repro.core.semantics import Interpretation, execute_schedule, execute_serial
from repro.core.transactions import StepRef, TransactionSystem
from repro.util.graphs import DiGraph

# ----------------------------------------------------------------------
# Herbrand (final-state) serializability: SR(T)
# ----------------------------------------------------------------------


def equivalent_serial_orders(
    system: TransactionSystem, schedule: Sequence[StepRef]
) -> List[Tuple[int, ...]]:
    """All serial orders whose Herbrand final state equals the schedule's.

    An empty list means the schedule is not (Herbrand) serializable.
    """
    schedule = validate_schedule(system, schedule)
    target = herbrand_final_state(system, schedule)
    orders: List[Tuple[int, ...]] = []
    for order in itertools.permutations(range(1, system.num_transactions + 1)):
        serial = serial_schedule(system.format, list(order))
        if herbrand_final_state(system, serial) == target:
            orders.append(tuple(order))
    return orders


def is_serializable(system: TransactionSystem, schedule: Sequence[StepRef]) -> bool:
    """Membership in ``SR(T)``: Herbrand-equivalence to some serial schedule."""
    return bool(equivalent_serial_orders(system, schedule))


def serializable_schedules(system: TransactionSystem) -> List[Schedule]:
    """Enumerate ``SR(T)`` exhaustively (small formats only)."""
    return [h for h in all_schedules(system) if is_serializable(system, h)]


# ----------------------------------------------------------------------
# Conflict serializability
# ----------------------------------------------------------------------


def conflict_graph(system: TransactionSystem, schedule: Sequence[StepRef]) -> DiGraph:
    """The precedence (conflict) graph of a schedule.

    Nodes are transaction indices; there is an edge ``i -> k`` if some
    step of ``T_i`` precedes and conflicts with some step of ``T_k`` in
    the schedule.  Two steps conflict when they access the same variable
    and at least one writes it.
    """
    schedule = validate_schedule(system, schedule)
    graph = DiGraph()
    for i in range(1, system.num_transactions + 1):
        graph.add_node(i)
    for a_pos, a in enumerate(schedule):
        step_a = system.step(a)
        for b in schedule[a_pos + 1 :]:
            if a.transaction == b.transaction:
                continue
            step_b = system.step(b)
            if step_a.variable != step_b.variable:
                continue
            if step_a.writes() or step_b.writes():
                graph.add_edge(a.transaction, b.transaction)
    return graph


def is_conflict_serializable(
    system: TransactionSystem, schedule: Sequence[StepRef]
) -> bool:
    """Whether the schedule's conflict graph is acyclic."""
    return not conflict_graph(system, schedule).has_cycle()


def conflict_equivalent_serial_orders(
    system: TransactionSystem, schedule: Sequence[StepRef]
) -> List[Tuple[int, ...]]:
    """All serial orders consistent with the conflict graph (topological sorts)."""
    graph = conflict_graph(system, schedule)
    return [tuple(order) for order in graph.all_topological_sorts()]


def conflict_serializable_schedules(system: TransactionSystem) -> List[Schedule]:
    """Enumerate the conflict-serializable schedules (small formats only)."""
    return [h for h in all_schedules(system) if is_conflict_serializable(system, h)]


# ----------------------------------------------------------------------
# View serializability
# ----------------------------------------------------------------------


def _reads_from(
    system: TransactionSystem, schedule: Sequence[StepRef]
) -> Dict[StepRef, Optional[StepRef]]:
    """For each reading step, the writing step it reads from (``None`` = initial value)."""
    last_writer: Dict[str, Optional[StepRef]] = {v: None for v in system.variables()}
    result: Dict[StepRef, Optional[StepRef]] = {}
    for ref in schedule:
        step = system.step(ref)
        if step.reads():
            result[ref] = last_writer[step.variable]
        if step.writes():
            last_writer[step.variable] = ref
    return result


def _final_writers(
    system: TransactionSystem, schedule: Sequence[StepRef]
) -> Dict[str, Optional[StepRef]]:
    """The last step writing each variable (``None`` if never written)."""
    last_writer: Dict[str, Optional[StepRef]] = {v: None for v in system.variables()}
    for ref in schedule:
        step = system.step(ref)
        if step.writes():
            last_writer[step.variable] = ref
    return last_writer


def view_equivalent(
    system: TransactionSystem,
    schedule_a: Sequence[StepRef],
    schedule_b: Sequence[StepRef],
) -> bool:
    """Whether two schedules are view equivalent (same reads-from and final writers)."""
    return _reads_from(system, schedule_a) == _reads_from(system, schedule_b) and (
        _final_writers(system, schedule_a) == _final_writers(system, schedule_b)
    )


def is_view_serializable(
    system: TransactionSystem, schedule: Sequence[StepRef]
) -> bool:
    """Whether the schedule is view equivalent to some serial schedule."""
    schedule = validate_schedule(system, schedule)
    for order in itertools.permutations(range(1, system.num_transactions + 1)):
        serial = serial_schedule(system.format, list(order))
        if view_equivalent(system, schedule, serial):
            return True
    return False


def view_serializable_schedules(system: TransactionSystem) -> List[Schedule]:
    """Enumerate the view-serializable schedules (small formats only)."""
    return [h for h in all_schedules(system) if is_view_serializable(system, h)]


# ----------------------------------------------------------------------
# Semantic (final-state under a concrete interpretation) serializability
# ----------------------------------------------------------------------


def is_state_serializable(
    system: TransactionSystem,
    interpretation: Interpretation,
    schedule: Sequence[StepRef],
    initial_states: Optional[Iterable[Mapping[str, object]]] = None,
) -> bool:
    """Final-state serializability under a *concrete* interpretation.

    The schedule must produce, from every supplied initial state, the same
    global final state as some serial schedule run from that state.  The
    witnessing serial order is allowed to differ per initial state (the
    paper's Figure 1 example only needs a single, shared order, but the
    weaker requirement matches "produces the same state as *a* serial
    history").
    """
    schedule = validate_schedule(system, schedule)
    if initial_states is None:
        initial_states = [interpretation.initial_globals]
    orders = list(itertools.permutations(range(1, system.num_transactions + 1)))
    for initial in initial_states:
        final = execute_schedule(system, interpretation, schedule, initial).globals_
        if not any(
            execute_serial(system, interpretation, list(order), initial).globals_
            == final
            for order in orders
        ):
            return False
    return True


# ----------------------------------------------------------------------
# Weak serializability: WSR(T)
# ----------------------------------------------------------------------


def _transaction_sequences(
    num_transactions: int, max_length: int
) -> Iterable[Tuple[int, ...]]:
    """All transaction-index sequences (with repetitions and omissions) up to a length."""
    indices = range(1, num_transactions + 1)
    for length in range(max_length + 1):
        yield from itertools.product(indices, repeat=length)


def is_weakly_serializable(
    system: TransactionSystem,
    interpretation: Interpretation,
    schedule: Sequence[StepRef],
    initial_states: Optional[Iterable[Mapping[str, object]]] = None,
    max_concatenation_length: Optional[int] = None,
) -> bool:
    """Membership in ``WSR(T)`` (Section 4.3), checked on a family of initial states.

    A schedule is weakly serializable if, starting from any state, it ends
    in a state achievable by some concatenation of serial transaction
    executions (repetitions and omissions allowed) from that same state.
    The quantification over all states is approximated by the supplied
    ``initial_states``; concatenations are searched up to
    ``max_concatenation_length`` (default ``num_transactions + 2``, which
    is exact for the paper's examples and generous for small systems).
    """
    schedule = validate_schedule(system, schedule)
    if initial_states is None:
        initial_states = [interpretation.initial_globals]
    if max_concatenation_length is None:
        max_concatenation_length = system.num_transactions + 2

    sequences = list(
        _transaction_sequences(system.num_transactions, max_concatenation_length)
    )
    for initial in initial_states:
        final = execute_schedule(system, interpretation, schedule, initial).globals_
        achievable = False
        for sequence in sequences:
            result = execute_serial(
                system,
                interpretation,
                list(sequence),
                initial,
                allow_repetitions=True,
            ).globals_
            if result == final:
                achievable = True
                break
        if not achievable:
            return False
    return True


def weakly_serializable_schedules(
    system: TransactionSystem,
    interpretation: Interpretation,
    initial_states: Optional[Iterable[Mapping[str, object]]] = None,
    max_concatenation_length: Optional[int] = None,
) -> List[Schedule]:
    """Enumerate ``WSR(T)`` over all schedules (small formats only)."""
    if initial_states is not None:
        initial_states = list(initial_states)
    return [
        h
        for h in all_schedules(system)
        if is_weakly_serializable(
            system, interpretation, h, initial_states, max_concatenation_length
        )
    ]


# ----------------------------------------------------------------------
# Relationships / sanity
# ----------------------------------------------------------------------


def classification(
    system: TransactionSystem,
    schedule: Sequence[StepRef],
    interpretation: Optional[Interpretation] = None,
    initial_states: Optional[Iterable[Mapping[str, object]]] = None,
) -> Dict[str, bool]:
    """Classify one schedule against every notion this module implements.

    Returns a dict with keys ``serial``, ``conflict_serializable``,
    ``view_serializable``, ``herbrand_serializable`` and — when an
    interpretation is supplied — ``state_serializable`` and
    ``weakly_serializable``.
    """
    result = {
        "serial": is_serial(system, schedule),
        "conflict_serializable": is_conflict_serializable(system, schedule),
        "view_serializable": is_view_serializable(system, schedule),
        "herbrand_serializable": is_serializable(system, schedule),
    }
    if interpretation is not None:
        states = list(initial_states) if initial_states is not None else None
        result["state_serializable"] = is_state_serializable(
            system, interpretation, schedule, states
        )
        result["weakly_serializable"] = is_weakly_serializable(
            system, interpretation, schedule, states
        )
    return result
