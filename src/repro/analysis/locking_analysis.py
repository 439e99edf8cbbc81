"""Locking-policy comparison (experiments E6, E9 and the Section 5.5 conclusions).

For each locking policy we measure, on a concrete transaction system:

* the number of lock-feasible schedules of ``L(T)`` (the LRS fixpoint),
* the number of *distinct projected* schedules of ``T`` the policy passes
  without delay (the Section 5.2 performance measure),
* whether every projected schedule is (Herbrand) serializable — i.e.
  whether the policy is correct on this system,
* whether the policy's locked transactions are two-phase / well-formed,
* deadlock possibility (for two-transaction systems, via the geometry).

:func:`compare_locking_policies` computes these side by side so one
table shows, e.g., that 2PL' strictly dominates 2PL while both
stay correct, and that dropping locks entirely admits incorrect schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.reporting import format_table
from repro.core.schedules import count_schedules
from repro.core.serializability import is_serializable
from repro.core.transactions import TransactionSystem
from repro.locking.geometry import ProgressSpace
from repro.locking.lock_manager import lock_feasible_schedules, policy_output_schedules
from repro.locking.policies import LockingPolicy, is_two_phase, is_well_formed, is_well_nested


@dataclass(frozen=True)
class LockingPolicyReport:
    """The measured behaviour of one locking policy on one system."""

    policy_name: str
    system_name: str
    total_schedules: int
    lock_feasible_schedules: int
    projected_schedules: int
    all_projected_serializable: bool
    separable: bool
    two_phase: bool
    well_nested: bool
    can_deadlock: Optional[bool]

    @property
    def performance_fraction(self) -> float:
        """Projected delay-free schedules as a fraction of ``|H(T)|``."""
        return (
            self.projected_schedules / self.total_schedules
            if self.total_schedules
            else 0.0
        )

    def as_row(self) -> tuple:
        return (
            self.policy_name,
            self.lock_feasible_schedules,
            self.projected_schedules,
            self.total_schedules,
            f"{self.performance_fraction:.3f}",
            "yes" if self.all_projected_serializable else "NO",
            "yes" if self.two_phase else "no",
            "-" if self.can_deadlock is None else ("yes" if self.can_deadlock else "no"),
        )


def analyse_policy(
    policy: LockingPolicy, system: TransactionSystem
) -> LockingPolicyReport:
    """Measure one policy on one system (exhaustive; small systems only)."""
    locked = policy(system)
    feasible = lock_feasible_schedules(locked)
    projected = policy_output_schedules(locked)
    all_serializable = all(is_serializable(system, s) for s in projected)
    two_phase = all(is_two_phase(txn) for txn in locked)
    well_nested = all(is_well_nested(txn) for txn in locked)
    can_deadlock: Optional[bool] = None
    if len(locked) == 2:
        can_deadlock = ProgressSpace.from_locked_system(locked).has_deadlock()
    return LockingPolicyReport(
        policy_name=policy.name,
        system_name=system.name,
        total_schedules=count_schedules(system),
        lock_feasible_schedules=len(feasible),
        projected_schedules=len(projected),
        all_projected_serializable=all_serializable,
        separable=policy.separable,
        two_phase=two_phase,
        well_nested=well_nested,
        can_deadlock=can_deadlock,
    )


def compare_locking_policies(
    policies: Sequence[LockingPolicy], system: TransactionSystem
) -> List[LockingPolicyReport]:
    """Measure several policies on the same system."""
    return [analyse_policy(policy, system) for policy in policies]


def policy_dominates(
    better: LockingPolicy, worse: LockingPolicy, system: TransactionSystem
) -> bool:
    """Whether ``better`` passes a strict superset of ``worse``'s delay-free schedules."""
    better_set = policy_output_schedules(better(system))
    worse_set = policy_output_schedules(worse(system))
    return worse_set < better_set


def locking_report_table(reports: Sequence[LockingPolicyReport]) -> str:
    """Render policy reports as the E9 comparison table."""
    return format_table(
        [
            "policy",
            "|feasible L(T)|",
            "|projected P|",
            "|H(T)|",
            "P/|H|",
            "serializable",
            "two-phase",
            "deadlock",
        ],
        [report.as_row() for report in reports],
    )
