"""Core model and theory from Kung & Papadimitriou (SIGMOD 1979).

This package implements the paper's primary contribution:

* the transaction-system model (syntax, semantics, integrity constraints)
  of Section 2 (:mod:`repro.core.transactions`, :mod:`repro.core.semantics`),
* schedules/histories and their enumeration (:mod:`repro.core.schedules`),
* Herbrand semantics and serializability theory, including weak
  serializability (:mod:`repro.core.herbrand`,
  :mod:`repro.core.serializability`),
* the information-based model for schedulers, fixpoint sets, and the
  optimality theorems of Sections 3-4 (:mod:`repro.core.information`,
  :mod:`repro.core.schedulers`, :mod:`repro.core.optimality`).
"""
