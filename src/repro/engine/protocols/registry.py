"""The shared protocol registry: one name -> factory map for the repo.

A protocol registered here is automatically covered by the conformance
harness (:mod:`repro.harness`): the differential matrix, the
fault-injection fuzzer, and the oracle stack.

Each entry also declares the protocol's **guarantee**, which selects the
oracles the harness holds it to:

* ``serializable`` — single-version conflict-serializability: the
  committed conflict graph must be acyclic, and so must the MVSG of the
  history lifted to single-version reads (the oracle-agreement guard).
* ``one-copy-serializable`` — multi-version: the MVSG of the actual
  reads-from relation and version order must be acyclic.
* ``snapshot-isolation`` — the MVSG verdict is advisory (write skew is
  admitted by design); only SI-level invariants (no lost updates,
  consistent snapshots) are required.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro.engine.protocols.base import ConcurrencyControl, SerialProtocol
from repro.engine.protocols.deterministic import (
    DeterministicEpoch,
    DeterministicSlotted,
)
from repro.engine.protocols.mvto import MultiVersionTimestampOrdering
from repro.engine.protocols.occ import OptimisticConcurrencyControl
from repro.engine.protocols.sgt import SerializationGraphTesting
from repro.engine.protocols.snapshot_isolation import SnapshotIsolation
from repro.engine.protocols.timestamp_ordering import TimestampOrdering
from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking

#: the guarantee levels a protocol may declare
SERIALIZABLE = "serializable"
ONE_COPY_SERIALIZABLE = "one-copy-serializable"
SNAPSHOT_ISOLATION = "snapshot-isolation"

GUARANTEES = (SERIALIZABLE, ONE_COPY_SERIALIZABLE, SNAPSHOT_ISOLATION)

ProtocolFactory = Callable[[Any], ConcurrencyControl]


@dataclass(frozen=True)
class ProtocolEntry:
    """One registered protocol: factory plus conformance metadata."""

    name: str
    factory: ProtocolFactory
    guarantee: str
    #: True when the protocol reads from version chains (its history is
    #: judged by the MVSG, never by the single-version conflict graph)
    multiversion: bool = False

    def __post_init__(self) -> None:
        if self.guarantee not in GUARANTEES:
            raise ValueError(
                f"unknown guarantee {self.guarantee!r}; expected one of {GUARANTEES}"
            )


def _occ_parallel(store: Any) -> OptimisticConcurrencyControl:
    return OptimisticConcurrencyControl(store, validation="parallel")


def _serializable_si(store: Any) -> SnapshotIsolation:
    return SnapshotIsolation(store, serializable=True)


def _entries(*entries: ProtocolEntry) -> Dict[str, ProtocolEntry]:
    return {entry.name: entry for entry in entries}


#: every registered protocol, by report name — the harness's matrix axis
PROTOCOL_ENTRIES: Dict[str, ProtocolEntry] = _entries(
    ProtocolEntry("serial", SerialProtocol, SERIALIZABLE),
    ProtocolEntry("strict-2pl", StrictTwoPhaseLocking, SERIALIZABLE),
    ProtocolEntry("sgt", SerializationGraphTesting, SERIALIZABLE),
    ProtocolEntry("timestamp", TimestampOrdering, SERIALIZABLE),
    ProtocolEntry("occ", OptimisticConcurrencyControl, SERIALIZABLE),
    ProtocolEntry("occ-parallel", _occ_parallel, SERIALIZABLE),
    ProtocolEntry("mvto", MultiVersionTimestampOrdering, ONE_COPY_SERIALIZABLE, multiversion=True),
    ProtocolEntry("si", SnapshotIsolation, SNAPSHOT_ISOLATION, multiversion=True),
    ProtocolEntry("serializable-si", _serializable_si, ONE_COPY_SERIALIZABLE, multiversion=True),
    # deterministic (Calvin-style) family: registered entries are judged
    # by the standard serializable oracles PLUS the deterministic oracle
    # (commit order == epoch order, zero protocol-issued aborts) keyed
    # off their ``deterministic`` class flag
    ProtocolEntry("det-epoch", DeterministicEpoch, SERIALIZABLE),
    ProtocolEntry("det-slot", DeterministicSlotted, SERIALIZABLE),
)

def get_entry(name: str) -> ProtocolEntry:
    """Look up a registered protocol, with a helpful error."""
    try:
        return PROTOCOL_ENTRIES[name]
    except KeyError:
        known = ", ".join(PROTOCOL_ENTRIES)
        raise KeyError(f"unknown protocol {name!r}; registered: {known}") from None
