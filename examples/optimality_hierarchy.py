"""The information/performance trade-off, end to end (Sections 3-4).

Enumerates every schedule of two small transaction systems, computes the
optimal fixpoint set at each information level (minimum, syntactic,
semantic-without-integrity-constraints, maximum), demonstrates the
Theorem 2 adversary construction, and prints the Section 6 delay-free
probabilities.

Run with::

    python examples/optimality_hierarchy.py
"""

from repro.core.examples import figure1_history, figure1_system
from repro.core.schedulers import (
    MaximumInformationScheduler,
    SerialScheduler,
    SerializationScheduler,
    WeakSerializationScheduler,
)
from repro.analysis.counting import delay_statistics_table
from repro.analysis.hierarchy import classify_all_schedules, hierarchy_table
from repro.core.optimality import minimum_information_adversary
from repro.core.semantics import final_globals


def main() -> None:
    instance = figure1_system()

    print("Schedule classes of the Figure 1 system (exhaustive enumeration):")
    print(" ", classify_all_schedules(instance).as_dict())
    print()

    print("Optimal fixpoint set per information level:")
    print(hierarchy_table(instance))
    print()

    print("Theorem 2's adversary: the history (T11, T21, T12) is non-serial, so at")
    print("minimum information an adversary with the same format can break it:")
    adversary = minimum_information_adversary(instance.system.format, figure1_history())
    final = final_globals(adversary.system, adversary.interpretation, figure1_history())
    print(f"  adversary interprets the separated steps as x+1 / x-1 and the")
    print(f"  intervening step as 2x, with constraint x = 0; the history ends at x = {final['x']}")
    print(f"  -> inconsistent, so no minimum-information scheduler may pass it.")
    print()

    print("Section 6: delay-free probability |P| / |H| per scheduler:")
    print(
        delay_statistics_table(
            [
                SerialScheduler(instance),
                SerializationScheduler(instance),
                WeakSerializationScheduler(instance),
                MaximumInformationScheduler(instance),
            ]
        )
    )


if __name__ == "__main__":
    main()
