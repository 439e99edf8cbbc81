"""Locking as a concurrency-control primitive (Section 5 of the paper).

A *locking policy* ``L`` maps an ordinary transaction system ``T`` to a
*locked transaction system* ``L(T)``: the same steps, plus well-nested
``lock X`` / ``unlock X`` steps over a set of locking variables, with the
fixed lock/unlock semantics and integrity constraints "all locks are 0".
Concurrency control is then entrusted to the *lock-respecting scheduler*
(LRS), which sees only the locking steps and the lock integrity
constraints.

This package provides:

* the locked-transaction-system representation and policy framework
  (:mod:`repro.locking.policies`),
* the two-phase locking policy 2PL of Figure 2, the strictly better
  separable variant 2PL' of Figure 5, and the tree-locking policy for
  structured data (:mod:`repro.locking.two_phase`,
  :mod:`repro.locking.tree_locking`),
* the lock-respecting scheduler and the projection of its output set back
  onto schedules of ``T`` — the performance measure for locking policies
  (:mod:`repro.locking.lock_manager`),
* the geometric methodology of Section 5.3: progress space, forbidden
  blocks, deadlock regions, homotopy to serial schedules, and the
  connectivity view of 2PL's correctness (:mod:`repro.locking.geometry`).
"""
