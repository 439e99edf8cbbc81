"""The Section 2 banking example: concurrency anomalies and how schedulers stop them.

Reproduces the paper's worked example — two account transactions and an
auditing transaction over accounts A and B, audit total S and counter C,
with integrity constraint ``A >= 0 and B >= 0 and A + B = S - 50*C`` —
then shows:

1. a serial execution preserving the constraint,
2. an interleaving in which the withdrawal slips between the audit's reads
   and its write of S, breaking the constraint,
3. how the serialization scheduler rejects (reschedules) that history while
   passing the harmless serializable interleavings.

Run with::

    python examples/banking_audit.py
"""

from repro.core.examples import banking_system
from repro.core.schedulers import SerialScheduler, SerializationScheduler
from repro.core.schedules import schedule_from_pairs, serial_schedule
from repro.core.semantics import final_globals
from repro.core.serializability import is_serializable


def show_state(label, state):
    print(
        f"  {label}: A={state['A']:4d}  B={state['B']:4d}  "
        f"S={state['S']:4d}  C={state['C']}"
    )


def main() -> None:
    instance = banking_system()
    system, interpretation, constraint = (
        instance.system,
        instance.interpretation,
        instance.constraint,
    )

    print("Initial state and integrity constraint:")
    show_state("initial", dict(interpretation.initial_globals))
    print(f"  constraint: {constraint.description}")
    print()

    print("1. Serial execution T1; T2; T3 (transfer, withdraw, audit):")
    serial = serial_schedule(system.format, [1, 2, 3])
    final = final_globals(system, interpretation, serial)
    show_state("final  ", final)
    print(f"  constraint holds: {constraint.holds(final)}")
    print()

    print("2. The dangerous interleaving: audit reads A and B, the withdrawal")
    print("   commits, then the audit writes the stale sum and resets C:")
    anomaly = schedule_from_pairs(
        [(3, 1), (3, 2), (2, 1), (2, 2), (3, 3), (3, 4), (1, 1), (1, 2), (1, 3)]
    )
    final = final_globals(system, interpretation, anomaly)
    show_state("final  ", final)
    print(f"  constraint holds: {constraint.holds(final)}")
    print(f"  serializable:     {is_serializable(system, anomaly)}")
    print()

    print("3. What the schedulers do with that request stream:")
    for scheduler in (SerialScheduler(instance), SerializationScheduler(instance)):
        produced = scheduler.schedule(anomaly)
        outcome = final_globals(system, interpretation, produced)
        print(
            f"  {scheduler.name:26s} -> delays {scheduler.delay_count(anomaly)} requests, "
            f"constraint holds after execution: {constraint.holds(outcome)}"
        )
    print()

    sr_size = len(SerializationScheduler(instance).fixpoint_set())
    serial_size = len(SerialScheduler(instance).fixpoint_set())
    print(
        f"Fixpoint sets on this system: serial scheduler passes {serial_size} of 1260 "
        f"histories without delay, the serialization scheduler {sr_size}."
    )


if __name__ == "__main__":
    main()
