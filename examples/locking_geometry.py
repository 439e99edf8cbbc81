"""The geometry of locking (Section 5.3): progress space, blocks, deadlock, 2PL vs 2PL'.

Reproduces Figures 2-5 in executable form: applies 2PL and 2PL' to the
paper's four-step transaction, draws the two-dimensional progress space of
a pair of transactions that lock in opposite orders (Figure 3), marks the
forbidden blocks and the deadlock region, and compares locking policies by
the set of request orderings they pass without delay.

Run with::

    python examples/locking_geometry.py
"""

from repro.analysis.locking_analysis import compare_locking_policies, locking_report_table
from repro.core.examples import counter_pair_system, figure2_transaction
from repro.core.transactions import make_system
from repro.locking.geometry import progress_space
from repro.locking.two_phase import (
    NoLockingPolicy,
    TwoPhaseLockingPolicy,
    TwoPhasePrimePolicy,
    two_phase_lock,
    two_phase_prime_lock,
)


def main() -> None:
    transaction = figure2_transaction()
    print("Figure 2: the 2PL transformation of the transaction (x, y, x, z)")
    for action in two_phase_lock(transaction):
        print("   ", action)
    print()
    print("Figure 5: the 2PL' transformation (distinguished variable x)")
    for action in two_phase_prime_lock(transaction, "x"):
        print("   ", action)
    print()

    print("Figure 3: progress space of T1 = (x, y) vs T2 = (y, x) under 2PL")
    space = progress_space(TwoPhaseLockingPolicy()(counter_pair_system()))
    print(space.ascii_render())
    print("   # = forbidden block, D = deadlock region")
    print("   blocks:", [(b.variable, (b.x_lo, b.x_hi), (b.y_lo, b.y_hi)) for b in space.blocks])
    print("   2PL common (phase-shift) point:", space.common_point())
    print("   lock-feasible schedules:", space.count_monotone_paths(avoid_blocks=True),
          "of", space.count_monotone_paths(avoid_blocks=False))
    print()

    print("Section 5.4: comparing locking policies on T1 = (x, y, z), T2 = (x, y)")
    witness = make_system(["x", "y", "z"], ["x", "y"], name="witness")
    reports = compare_locking_policies(
        [NoLockingPolicy(), TwoPhaseLockingPolicy(), TwoPhasePrimePolicy("x")], witness
    )
    print(locking_report_table(reports))
    print()
    print("2PL' is correct, separable, and passes strictly more request orderings")
    print("without delay than 2PL — so 2PL is not optimal among separable policies")
    print("once one variable may be treated specially (the paper's Section 5.4).")


if __name__ == "__main__":
    main()
