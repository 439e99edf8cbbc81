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

An entry names its protocol by module path, so importing the registry
loads no protocol module: a run imports the one it uses when it first
reads that entry's ``factory``.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Callable, Dict, Union

if TYPE_CHECKING:
    from repro.engine.protocols.base import ConcurrencyControl
    from repro.engine.protocols.occ import OptimisticConcurrencyControl
    from repro.engine.protocols.snapshot_isolation import SnapshotIsolation

#: the guarantee levels a protocol may declare
SERIALIZABLE = "serializable"
ONE_COPY_SERIALIZABLE = "one-copy-serializable"
SNAPSHOT_ISOLATION = "snapshot-isolation"

GUARANTEES = (SERIALIZABLE, ONE_COPY_SERIALIZABLE, SNAPSHOT_ISOLATION)

ProtocolFactory = Callable[[Any], "ConcurrencyControl"]


class ProtocolEntry:
    """One registered protocol: factory plus conformance metadata.

    ``factory`` is a callable, or the ``"module:attribute"`` path of one
    (a module name starting with a dot is relative to
    :mod:`repro.engine.protocols`): a registered entry names its
    protocol by path, so the registry loads no protocol module until
    :attr:`factory` is first read, and then returns the module's own
    class or function (so the factory pickles by reference and keeps
    its identity).
    """

    __slots__ = ("name", "guarantee", "multiversion", "_factory")

    def __init__(
        self,
        name: str,
        factory: Union[ProtocolFactory, str],
        guarantee: str,
        multiversion: bool = False,
    ) -> None:
        if guarantee not in GUARANTEES:
            raise ValueError(
                f"unknown guarantee {guarantee!r}; expected one of {GUARANTEES}"
            )
        self.name = name
        self._factory = factory
        self.guarantee = guarantee
        #: True when the protocol reads from version chains (its history is
        #: judged by the MVSG, never by the single-version conflict graph)
        self.multiversion = multiversion

    @property
    def factory(self) -> ProtocolFactory:
        factory = self._factory
        if isinstance(factory, str):
            path, _, attribute = factory.partition(":")
            module = importlib.import_module(path, __package__)
            factory = self._factory = getattr(module, attribute)
        return factory


def _occ_parallel(store: Any) -> OptimisticConcurrencyControl:
    from repro.engine.protocols.occ import OptimisticConcurrencyControl

    return OptimisticConcurrencyControl(store, validation="parallel")


def _serializable_si(store: Any) -> SnapshotIsolation:
    from repro.engine.protocols.snapshot_isolation import SnapshotIsolation

    return SnapshotIsolation(store, serializable=True)


def _entries(*entries: ProtocolEntry) -> Dict[str, ProtocolEntry]:
    return {entry.name: entry for entry in entries}


#: every registered protocol, by report name — the harness's matrix axis
PROTOCOL_ENTRIES: Dict[str, ProtocolEntry] = _entries(
    ProtocolEntry("serial", ".base:SerialProtocol", SERIALIZABLE),
    ProtocolEntry("strict-2pl", ".two_phase_locking:StrictTwoPhaseLocking", SERIALIZABLE),
    ProtocolEntry("sgt", ".sgt:SerializationGraphTesting", SERIALIZABLE),
    ProtocolEntry("timestamp", ".timestamp_ordering:TimestampOrdering", SERIALIZABLE),
    ProtocolEntry("occ", ".occ:OptimisticConcurrencyControl", SERIALIZABLE),
    ProtocolEntry("occ-parallel", _occ_parallel, SERIALIZABLE),
    ProtocolEntry(
        "mvto", ".mvto:MultiVersionTimestampOrdering", ONE_COPY_SERIALIZABLE, multiversion=True
    ),
    ProtocolEntry(
        "si", ".snapshot_isolation:SnapshotIsolation", SNAPSHOT_ISOLATION, multiversion=True
    ),
    ProtocolEntry("serializable-si", _serializable_si, ONE_COPY_SERIALIZABLE, multiversion=True),
    # deterministic (Calvin-style) family: registered entries are judged
    # by the standard serializable oracles PLUS the deterministic oracle
    # (commit order == epoch order, zero protocol-issued aborts) keyed
    # off their ``deterministic`` class flag
    ProtocolEntry("det-epoch", ".deterministic:DeterministicEpoch", SERIALIZABLE),
    ProtocolEntry("det-slot", ".deterministic:DeterministicSlotted", SERIALIZABLE),
)

def get_entry(name: str) -> ProtocolEntry:
    """Look up a registered protocol, with a helpful error."""
    try:
        return PROTOCOL_ENTRIES[name]
    except KeyError:
        known = ", ".join(PROTOCOL_ENTRIES)
        raise KeyError(f"unknown protocol {name!r}; registered: {known}") from None
