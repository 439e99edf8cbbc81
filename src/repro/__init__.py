"""repro — a reproduction of Kung & Papadimitriou (SIGMOD 1979).

*An Optimality Theory of Concurrency Control for Databases* introduced
the information/performance framework for schedulers: a scheduler's
performance is its *fixpoint set* (the request streams it passes without
delay), its cost is the *information* it uses, and for each level of
information there is a well-defined optimal scheduler (serial,
serialization, weak serialization, ...).  Section 5 analyses locking —
two-phase locking, its 2PL' improvement, and the geometry of progress
spaces — through the same lens.

The package is organised as below.  A package ``__init__`` holds only
its docstring (:mod:`repro.dist` also keeps ``run_distributed_batch``
for the benchmark): a public name is imported from the module that
defines it, and importing the online engine does not load the static
theory, nor a protocol it does not run, nor ``multiprocessing``.

* :mod:`repro.core` — the transaction-system model, schedules, Herbrand
  semantics, serializability theory, information levels, schedulers and
  the optimality theorems.
* :mod:`repro.locking` — locking policies (2PL, 2PL', tree locking), the
  lock-respecting scheduler and the geometry of locking.
* :mod:`repro.engine` — an executable multi-user concurrency-control
  engine (the online protocols of
  :data:`repro.engine.protocols.registry.PROTOCOL_ENTRIES`) plus
  workload generation and a discrete-event simulator, used to measure
  the performance consequences the paper argues analytically.
* :mod:`repro.dist` — cross-shard two-phase commit and Paxos replica
  groups over a simulated network.
* :mod:`repro.obs` — event tracing, contention profiles and trace export.
* :mod:`repro.harness` — the seeded cross-protocol conformance and chaos
  harness.
* :mod:`repro.analysis` — exhaustive schedule classification, fixpoint
  counting, delay-free probabilities and the experiment report helpers.

Quickstart::

    from repro.core.examples import banking_system
    from repro.core.optimality import certify
    from repro.core.schedulers import SerializationScheduler

    instance = banking_system()
    print(certify(SerializationScheduler(instance)).summary())
"""
