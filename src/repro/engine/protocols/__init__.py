"""Online concurrency-control protocols.

Each protocol implements the :class:`repro.engine.protocols.base.ConcurrencyControl`
interface: requests arrive one at a time and are granted, blocked, or
aborted.  Implemented protocols:

* :class:`~repro.engine.protocols.base.SerialProtocol` — one transaction
  at a time (the paper's "sure way to secure consistency", and its
  minimum-information optimum).
* :class:`~repro.engine.protocols.two_phase_locking.StrictTwoPhaseLocking`
  — shared/exclusive locks held to commit, wait-for-graph deadlock
  detection.
* :class:`~repro.engine.protocols.sgt.SerializationGraphTesting` — grant
  everything, maintain the conflict graph, abort on cycles.
* :class:`~repro.engine.protocols.timestamp_ordering.TimestampOrdering` —
  basic T/O with read/write timestamps.
* :class:`~repro.engine.protocols.occ.OptimisticConcurrencyControl` —
  read/validate/write phases with backward validation (Kung & Robinson).
* :class:`~repro.engine.protocols.mvto.MultiVersionTimestampOrdering` —
  multi-version T/O: snapshot reads at the start timestamp (readers
  never block or abort), writers validate against read timestamps.
* :class:`~repro.engine.protocols.snapshot_isolation.SnapshotIsolation`
  — begin-snapshot reads + first-committer-wins writes, with a
  ``serializable=True`` knob adding SSI-style rw-antidependency checks.
"""

from repro.engine.protocols.base import (
    ConcurrencyControl,
    Decision,
    DecisionKind,
    SerialProtocol,
)
from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking
from repro.engine.protocols.timestamp_ordering import TimestampOrdering
from repro.engine.protocols.sgt import SerializationGraphTesting
from repro.engine.protocols.occ import OptimisticConcurrencyControl
from repro.engine.protocols.mvto import MultiVersionTimestampOrdering
from repro.engine.protocols.snapshot_isolation import SIFootprint, SnapshotIsolation

__all__ = [
    "ConcurrencyControl",
    "Decision",
    "DecisionKind",
    "SerialProtocol",
    "StrictTwoPhaseLocking",
    "TimestampOrdering",
    "SerializationGraphTesting",
    "OptimisticConcurrencyControl",
    "MultiVersionTimestampOrdering",
    "SIFootprint",
    "SnapshotIsolation",
]
