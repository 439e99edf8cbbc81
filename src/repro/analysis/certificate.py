"""Serial-order certificates: the serializability verdict without a graph.

Kung & Papadimitriou call a scheduler correct when its output lies in
SR(T), and a correct online scheduler already knows which serial order
it emulates: commit order for locking, serial OCC and the deterministic
protocols, the validation ticket for parallel OCC, the version timestamp
for the multi-version protocols.  A certificate checks that the
committed history is equivalent to that one order.  When it holds,
every edge of the conflict graph (or of the MVSG) points forward in the
order, so the graph is acyclic and need not be built.  When it fails,
nothing is concluded: the caller builds the graph, which is the verdict.

Both checks are *sound but incomplete*: accept implies acyclic, and a
wrong hint (a rank or stamp that is not a serial order) only sends the
verdict to the graph.

* :func:`serial_order_certified` — single-version histories in the
  ``(commit position, txn id, trail)`` form of
  :meth:`~repro.engine.protocols.base.ConcurrencyControl.committed_log`.
  Writes take effect at their transaction's commit position, reads where
  they were granted.  In the order of the ranks, on each key the
  writers' commit positions must rise (ww edges forward), a read must
  come after the commit of the last lower-ranked writer (wr edges
  forward) and before the commit of every higher-ranked one (rw edges
  forward).  In commit order the first and last conditions hold by
  construction, so the check is one pass with one dict.
* :func:`multiversion_order_certified` — an :class:`~repro.analysis.mvsg.
  MVHistory` carrying per-writer version stamps.  Each writer is placed
  at its stamp; a transaction that writes nothing is placed anywhere in
  the open interval between the largest stamp it read and the smallest
  stamp of a version installed after one it read (its own excepted).
  If the stamps rise along every key's version order, every such
  interval is non-empty and every writer's stamp lies inside its own
  interval, all MVSG edges point forward.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.analysis.mvsg import MVHistory

#: one committed transaction of a single-version history
CommittedEntry = Tuple[int, int, Iterable[Tuple[int, str, str]]]


def serial_order_certified(
    history: Iterable[CommittedEntry], ranks: Optional[Mapping[int, Any]] = None
) -> bool:
    """Whether the history is conflict-equivalent to its rank order.

    ``history`` is in commit order.  ``ranks`` maps each committed
    transaction to its place in the claimed serial order; ``None`` means
    commit order.  A transaction without a rank fails the certificate.
    """
    if ranks is not None:
        return _rank_order_certified(history, ranks)
    # commit position of the last writer committed so far, per key
    last_write: Dict[str, int] = {}
    for commit_position, _txn_id, trail in history:
        for position, kind, key in trail:
            if kind == "read" and last_write.get(key, -1) > position:
                return False  # an earlier committer overwrote what we read
        for _position, kind, key in trail:
            if kind == "write":
                last_write[key] = commit_position
    return True


def _rank_order_certified(
    history: Iterable[CommittedEntry], ranks: Mapping[int, Any]
) -> bool:
    try:
        ranked = [(ranks[entry[1]], entry) for entry in history]
    except KeyError:
        return False
    ranked.sort(key=itemgetter(0))
    # per key, over the transactions ranked below the current one: the
    # commit position of the last writer and the latest read position
    last_write: Dict[str, int] = {}
    last_read: Dict[str, int] = {}
    for _rank, (commit_position, _txn_id, trail) in ranked:
        for position, kind, key in trail:
            if kind == "read":
                if last_write.get(key, -1) > position:
                    return False
            elif (
                last_write.get(key, -1) > commit_position
                or last_read.get(key, -1) > commit_position
            ):
                return False
        for position, kind, key in trail:
            if kind == "write":
                last_write[key] = commit_position
            elif position > last_read.get(key, -1):
                last_read[key] = position
    return True


def multiversion_order_certified(history: MVHistory) -> bool:
    """Whether the MV history is one-copy equivalent to its stamp order.

    Uses only what :func:`~repro.analysis.mvsg.
    multiversion_serialization_graph` reads, plus ``history.stamps``;
    without stamps the certificate fails.
    """
    stamps = history.stamps
    if stamps is None:
        return False
    committed = history.committed
    # per key: version (writer, None = initial) -> (stamp, writer) of the
    # next committed version in version order, or None for the newest
    successors: Dict[str, Dict[Optional[int], Optional[Tuple[Any, int]]]] = {}
    for key, order in history.version_orders.items():
        following: Dict[Optional[int], Optional[Tuple[Any, int]]] = {}
        previous: Optional[int] = None
        previous_stamp: Any = None
        for writer in order:
            if writer not in committed:
                continue
            stamp = stamps.get(writer)
            if stamp is None or (previous is not None and not previous_stamp < stamp):
                return False
            following[previous] = (stamp, writer)
            previous, previous_stamp = writer, stamp
        following[previous] = None
        successors[key] = following

    # per transaction: the open interval its reads leave for it
    floors: Dict[int, Any] = {}
    ceilings: Dict[int, Any] = {}
    for read in history.reads:
        reader = read.txn_id
        writer = read.writer
        if reader not in committed or reader == writer:
            continue
        if writer is not None and writer not in committed:
            continue  # the graph skips it too
        following = successors.get(read.key)
        if following is None or writer not in following:
            if writer is None:
                continue  # the initial version of a key nobody wrote
            return False
        if writer is not None:
            floor = stamps[writer]
            if reader not in floors or floor > floors[reader]:
                floors[reader] = floor
        successor = following[writer]
        # the reader's own version next needs no ceiling: the stamps
        # already rise along the version order past it
        if successor is not None and successor[1] != reader:
            ceiling = successor[0]
            if reader not in ceilings or ceiling < ceilings[reader]:
                ceilings[reader] = ceiling

    for txn_id, floor in floors.items():
        stamp = stamps.get(txn_id)
        if stamp is not None and not floor < stamp:
            return False
        ceiling = ceilings.get(txn_id)
        if ceiling is not None and not floor < ceiling:
            return False
    for txn_id, ceiling in ceilings.items():
        stamp = stamps.get(txn_id)
        if stamp is not None and not stamp < ceiling:
            return False
    return True
