"""Multi-version serialization graph (MVSG) checking.

The engine's single-version protocols are checked against the paper's
theory through the conflict graph of their committed histories.  That
check is **wrong** for multi-version schedules: a reader served from an
old version appears *after* the superseding writer in the log, so the
conflict graph draws the edge writer → reader, while in the one-copy
equivalent serial order the reader must come *first*.  The right tool is
Bernstein & Goodman's multi-version serialization graph: given the
reads-from relation of the execution and, per key, the order in which
versions were installed, build

* a node per committed transaction;
* for every read ``r_j(x_i)`` (``T_j`` read the version of ``x`` written
  by ``T_i``): an edge ``T_i -> T_j`` (reads-from);
* for every read ``r_j(x_i)`` and every other committed writer ``T_k``
  of ``x``: if ``T_k``'s version precedes ``T_i``'s in the version
  order, the edge ``T_k -> T_i`` (the superseded writer serialises
  before the one that was read); otherwise the edge ``T_j -> T_k`` (the
  reader serialises before the writer that later superseded what it
  read).

The committed history is **one-copy serializable (1SR)** with respect to
the version order the protocol actually produced iff this graph is
acyclic.  This is the bridge back to the paper: multi-version protocols
enlarge the set of admissible schedules beyond the conflict-serializable
single-version ones, and the MVSG is the certificate that they stayed
within the correct (1SR) class while doing so.

The multi-version protocols (:class:`~repro.engine.protocols.mvto.
MultiVersionTimestampOrdering`, :class:`~repro.engine.protocols.
snapshot_isolation.SnapshotIsolation`) log the inputs as they run —
``mv_reads`` and ``committed_version_orders()`` — so
:meth:`MVHistory.from_protocol` captures a finished execution in one
call.  Note that plain snapshot isolation *can* fail this check (write
skew is admitted by design); serializable SI and MVTO cannot.

The protocols' own verdict builds this graph only as a fallback: it
first tries :func:`repro.analysis.certificate.
multiversion_order_certified`, which places each writer at its version
stamp (:attr:`MVHistory.stamps`) and checks in one pass that every MVSG
edge would point forward.  The harness's oracles build the graph
unconditionally, so they stay an independent judge of that shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.engine.mvstore import VersionedRead
from repro.util.graphs import DiGraph

#: position assigned to the initial (writer-less) version of every key;
#: real versions are ordered after it.
_INITIAL_POSITION = -1


@dataclass(frozen=True)
class MVHistory:
    """A committed multi-version execution, ready for MVSG checking.

    Parameters
    ----------
    committed:
        The committed transaction identifiers.
    reads:
        Reads-from observations (``writer is None`` = initial version).
        Reads by or from transactions outside ``committed`` are ignored
        by the checker — aborted work never happened.
    version_orders:
        Per key, the committed writers in version order (oldest first),
        *excluding* the initial version.
    stamps:
        Optionally, per writer, the timestamp its versions carry — the
        serial position the protocol claims for it.  The graph never
        reads it; :func:`repro.analysis.certificate.
        multiversion_order_certified` checks the claim.
    """

    committed: FrozenSet[int]
    reads: Tuple[VersionedRead, ...]
    version_orders: Mapping[str, Tuple[int, ...]]
    stamps: Optional[Mapping[int, Any]] = None

    @classmethod
    def from_protocol(cls, protocol) -> "MVHistory":
        """Capture the committed history of a multi-version protocol.

        Uses ``mvsg_transactions()`` when the protocol provides it, so
        kernel fast-path readers — which never enter the protocol's
        ``committed`` set — are certified alongside ordinary commits.
        """
        if hasattr(protocol, "mvsg_transactions"):
            committed = protocol.mvsg_transactions()
        else:
            committed = frozenset(protocol.committed)
        return cls(
            committed=committed,
            reads=tuple(protocol.mv_reads),
            version_orders=protocol.committed_version_orders(),
            stamps=protocol.version_stamps(),
        )


def multiversion_serialization_graph(history: MVHistory) -> DiGraph:
    """Build the MVSG of a committed multi-version history."""
    committed = history.committed
    graph = DiGraph()
    for txn_id in committed:
        graph.add_node(txn_id)

    positions: Dict[str, Dict[int, int]] = {}
    writers_by_key: Dict[str, List[int]] = {}
    for key, order in history.version_orders.items():
        ordered = [txn for txn in order if txn in committed]
        positions[key] = {txn: index for index, txn in enumerate(ordered)}
        writers_by_key[key] = ordered

    for read in history.reads:
        reader = read.txn_id
        writer = read.writer
        if reader not in committed:
            continue
        if writer is not None and writer not in committed:
            # a committed reader observed an uncommitted/aborted version:
            # impossible under the engine's deferred-write protocols, but
            # a manually built history may contain it — treat the version
            # as absent rather than crash.
            continue
        if writer == reader:
            continue
        if writer is not None:
            graph.add_edge(writer, reader)
        key_positions = positions.get(read.key, {})
        read_position = (
            _INITIAL_POSITION if writer is None else key_positions.get(writer)
        )
        if read_position is None:
            continue
        for other in writers_by_key.get(read.key, ()):
            if other == writer or other == reader:
                continue
            if key_positions[other] < read_position:
                graph.add_edge(other, writer)
            else:
                graph.add_edge(reader, other)
    return graph


def one_copy_serializable(history: MVHistory) -> bool:
    """Whether the committed history is 1SR under its actual version order."""
    return not multiversion_serialization_graph(history).has_cycle()


def explain_mvsg_cycle(history: MVHistory) -> Optional[List[int]]:
    """A witness cycle of committed transactions, or ``None`` if 1SR.

    Useful in tests and reports: for a write-skew history the cycle is
    the pair of transactions that each read what the other wrote.
    """
    return multiversion_serialization_graph(history).find_cycle()
