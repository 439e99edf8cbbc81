"""Quickstart: the information/performance framework in a dozen lines.

Builds the Figure 1 transaction system, checks a concrete history against
every serializability notion, and certifies the optimal scheduler at each
information level of the paper.

Run with::

    python examples/quickstart.py
"""

from repro.core.examples import figure1_history, figure1_system
from repro.core.schedulers import (
    MaximumInformationScheduler,
    SerialScheduler,
    SerializationScheduler,
    WeakSerializationScheduler,
)
from repro.core.optimality import certify
from repro.core.serializability import classification
from repro.analysis.hierarchy import hierarchy_table


def main() -> None:
    instance = figure1_system()
    history = figure1_history()

    print("Transaction system (Figure 1 of the paper):")
    print(instance.system.describe())
    print()

    print("The history h = (T11, T21, T12) classified against every notion:")
    for notion, holds in classification(
        instance.system, history, instance.interpretation, instance.consistent_states
    ).items():
        print(f"  {notion:24s}: {holds}")
    print()

    print("Optimal fixpoint set at each information level (Theorem 1 + Section 4):")
    print(hierarchy_table(instance))
    print()

    print("Certifying the concrete schedulers against their Theorem-1 bounds:")
    for scheduler_cls in (
        SerialScheduler,
        SerializationScheduler,
        WeakSerializationScheduler,
        MaximumInformationScheduler,
    ):
        print(" ", certify(scheduler_cls(instance)).summary())


if __name__ == "__main__":
    main()
