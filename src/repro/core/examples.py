"""The worked examples of the paper, as ready-made instances.

* :func:`banking_system` — the Section 2 example: three transactions over
  accounts ``A`` and ``B``, an audit sum ``S`` and a counter ``C``, with
  integrity constraint ``A >= 0 and B >= 0 and A + B == S - 50 * C``.
* :func:`figure1_system` — the Figure 1 system used to motivate weak
  serializability: ``T1 = (x <- x+1, x <- 2x)`` and ``T2 = (x <- x+1)``.
* :func:`figure2_transaction` / :func:`figure2_system` — the four-step
  transaction on ``x, y, x, z`` that Figures 2 and 5 lock with 2PL and
  2PL' respectively (paired with a second transaction so locking has
  something to protect against).

These are used throughout the tests and examples.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.core.instance import SystemInstance
from repro.core.semantics import IntegrityConstraint, Interpretation
from repro.core.transactions import (
    StepRef,
    Transaction,
    TransactionSystem,
    update_step,
)

# ----------------------------------------------------------------------
# Section 2: the banking example
# ----------------------------------------------------------------------


def banking_transaction_system() -> TransactionSystem:
    """The syntax of the Section 2 banking example (format ``(3, 2, 4)``).

    * ``T1`` accesses ``A, B, A`` — transfer $100 from A to B if A has
      enough funds and B's balance is below $100.
    * ``T2`` accesses ``B, C`` — withdraw $50 from B (if funded) and bump
      the counter ``C``.
    * ``T3`` accesses ``A, B, S, C`` — audit: compute ``S = A + B`` and
      reset ``C`` to 0.
    """
    t1 = Transaction(
        [update_step("A"), update_step("B"), update_step("A")], name="T1-transfer"
    )
    t2 = Transaction([update_step("B"), update_step("C")], name="T2-withdraw")
    t3 = Transaction(
        [update_step("A"), update_step("B"), update_step("S"), update_step("C")],
        name="T3-audit",
    )
    return TransactionSystem([t1, t2, t3], name="banking")


def banking_interpretation(
    system: TransactionSystem,
    initial: Mapping[str, int] = None,
) -> Interpretation:
    """The concrete semantics ``phi_ij`` of the banking example.

    The interpretations follow the paper exactly:

    * ``phi_11 = t_11`` (read A),
      ``phi_12 = if t_11 >= 100 and t_12 < 100 then t_12 + 100 else t_12``,
      ``phi_13 = if t_11 >= 100 and t_12 < 100 then t_11 - 100 else t_11``
      (the paper leaves the A-debit step implicit in its phi listing; it is
      the step that makes T1 an atomic transfer, conditioned identically
      to the B-credit so the transfer happens entirely or not at all).
    * ``phi_21 = if t_21 >= 50 then t_21 - 50 else t_21``,
      ``phi_22 = if t_21 >= 50 then t_22 + 1 else t_22``.
    * ``phi_31 = t_31``, ``phi_32 = t_32``, ``phi_33 = t_31 + t_32``,
      ``phi_34 = 0``.
    """
    if initial is None:
        initial = {"A": 150, "B": 50, "S": 200, "C": 0}

    def phi_11(t11: int) -> int:
        return t11

    def phi_12(t11: int, t12: int) -> int:
        return t12 + 100 if t11 >= 100 and t12 < 100 else t12

    def phi_13(t11: int, t12: int, t13: int) -> int:
        return t11 - 100 if t11 >= 100 and t12 < 100 else t13

    def phi_21(t21: int) -> int:
        return t21 - 50 if t21 >= 50 else t21

    def phi_22(t21: int, t22: int) -> int:
        return t22 + 1 if t21 >= 50 else t22

    def phi_31(t31: int) -> int:
        return t31

    def phi_32(t31: int, t32: int) -> int:
        return t32

    def phi_33(t31: int, t32: int, t33: int) -> int:
        return t31 + t32

    def phi_34(t31: int, t32: int, t33: int, t34: int) -> int:
        return 0

    return Interpretation(
        system=system,
        step_functions={
            StepRef(1, 1): phi_11,
            StepRef(1, 2): phi_12,
            StepRef(1, 3): phi_13,
            StepRef(2, 1): phi_21,
            StepRef(2, 2): phi_22,
            StepRef(3, 1): phi_31,
            StepRef(3, 2): phi_32,
            StepRef(3, 3): phi_33,
            StepRef(3, 4): phi_34,
        },
        initial_globals=dict(initial),
        name="banking",
    )


def banking_constraint() -> IntegrityConstraint:
    """``A >= 0 and B >= 0 and A + B == S - 50 * C`` (Section 2)."""
    return IntegrityConstraint(
        lambda g: g["A"] >= 0 and g["B"] >= 0 and g["A"] + g["B"] == g["S"] - 50 * g["C"],
        "A >= 0 and B >= 0 and A + B = S - 50C",
    )


def banking_system(
    initial: Mapping[str, int] = None,
    extra_consistent_states: Tuple[Mapping[str, int], ...] = (),
) -> SystemInstance:
    """The complete Section 2 banking instance (syntax + semantics + ICs)."""
    system = banking_transaction_system()
    interpretation = banking_interpretation(system, initial)
    states = (dict(interpretation.initial_globals),) + tuple(
        dict(s) for s in extra_consistent_states
    )
    return SystemInstance(
        system=system,
        interpretation=interpretation,
        constraint=banking_constraint(),
        consistent_states=states,
    )


# ----------------------------------------------------------------------
# Figure 1: the weak-serializability example
# ----------------------------------------------------------------------


def figure1_transaction_system() -> TransactionSystem:
    """The Figure 1 syntax: ``T1`` touches ``x`` twice, ``T2`` touches ``x`` once."""
    t1 = Transaction([update_step("x"), update_step("x")], name="T1")
    t2 = Transaction([update_step("x")], name="T2")
    return TransactionSystem([t1, t2], name="figure1")


def figure1_interpretation(
    system: TransactionSystem, initial_x: int = 0
) -> Interpretation:
    """``T11: x <- x+1``, ``T12: x <- 2x``, ``T21: x <- x+1``."""

    def plus_one_first(t1: int) -> int:
        return t1 + 1

    def double(t1: int, t2: int) -> int:
        return 2 * t2

    def plus_one_second(t1: int) -> int:
        return t1 + 1

    return Interpretation(
        system=system,
        step_functions={
            StepRef(1, 1): plus_one_first,
            StepRef(1, 2): double,
            StepRef(2, 1): plus_one_second,
        },
        initial_globals={"x": initial_x},
        name="figure1",
    )


def figure1_system(
    initial_x: int = 0, extra_initial_values: Tuple[int, ...] = (1, 2, 5)
) -> SystemInstance:
    """The Figure 1 instance with trivially-true integrity constraints.

    The interesting history ``h = (T11, T21, T12)`` is *not*
    Herbrand-serializable but *is* weakly serializable (indeed
    state-equivalent to the serial history ``T2; T1``), which is what
    Theorem 4 is about.  Several initial values of ``x`` are included so
    the state-based checks quantify over more than one consistent state.
    """
    system = figure1_transaction_system()
    interpretation = figure1_interpretation(system, initial_x)
    states = ({"x": initial_x},) + tuple({"x": v} for v in extra_initial_values)
    return SystemInstance(
        system=system,
        interpretation=interpretation,
        consistent_states=states,
    )


def figure1_history() -> Tuple[StepRef, ...]:
    """The history ``h = (T11, T21, T12)`` discussed under Figure 1."""
    return (StepRef(1, 1), StepRef(2, 1), StepRef(1, 2))


# ----------------------------------------------------------------------
# Figure 2 / Figure 5: the transaction that 2PL and 2PL' lock
# ----------------------------------------------------------------------


def figure2_transaction() -> Transaction:
    """The four-step transaction ``x, y, x, z`` of Figure 2(a)."""
    return Transaction(
        [update_step("x"), update_step("y"), update_step("x"), update_step("z")],
        name="Ti",
    )


def figure2_system() -> TransactionSystem:
    """The Figure 2 transaction paired with a partner touching ``x`` and ``y``.

    The paper draws Figure 2 for a single transaction; pairing it with a
    second transaction gives the locking policies something to coordinate
    and is the system used by the 2PL-vs-2PL' experiments (E6, E9).
    """
    partner = Transaction([update_step("x"), update_step("y")], name="Tj")
    return TransactionSystem([figure2_transaction(), partner], name="figure2")


def counter_pair_system() -> TransactionSystem:
    """A minimal two-transaction, two-variable system (used by geometry examples).

    ``T1`` accesses ``x`` then ``y``; ``T2`` accesses ``y`` then ``x`` —
    the classic lock-ordering pattern that produces the deadlock region
    of Figure 3.
    """
    t1 = Transaction([update_step("x"), update_step("y")], name="T1")
    t2 = Transaction([update_step("y"), update_step("x")], name="T2")
    return TransactionSystem([t1, t2], name="counter-pair")
