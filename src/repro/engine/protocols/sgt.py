"""Serialization graph testing (SGT).

The most permissive of the classical conflict-based protocols: every
request is granted immediately, and the scheduler maintains the
serialization (conflict) graph over live and committed transactions.  A
request whose conflict edges would close a cycle is refused and its
transaction aborted, which keeps the graph acyclic and hence the history
conflict-serializable.

SGT is the natural online counterpart of the serialization scheduler of
Theorem 3: it accepts strictly more interleavings than two-phase locking
(no waits are ever introduced, only the conflicts that would actually
break serializability are punished), at the cost of remembering
"which transaction read data first from which" — exactly the memory the
paper observes a lock-based scheduler cannot have (Section 5.3).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.engine.metrics import Metrics
from repro.engine.protocols.base import ConcurrencyControl, Decision
from repro.engine.reasons import ABORT_SG_CYCLE, ABORT_WAIT_DEADLOCK
from repro.engine.storage import DataStore
from repro.util.graphs import DiGraph, WaitForGraph


class SerializationGraphTesting(ConcurrencyControl):
    """Grant everything; abort the requester if its conflicts would close a cycle."""

    name = "sgt"

    def __init__(self, store: DataStore, metrics: Optional[Metrics] = None) -> None:
        super().__init__(store, metrics=metrics)
        #: conflict graph over transactions; nodes are removed only once it is
        #: safe to forget them (committed with no live predecessors).
        self.graph = DiGraph()
        self._readers: Dict[str, Set[int]] = {}
        self._writers: Dict[str, Set[int]] = {}
        #: waits caused by pending (uncommitted, buffered) writes; a cycle here
        #: is a deadlock and aborts the requester.
        self._wait_for = WaitForGraph()

    def on_begin(self, txn_id: int) -> None:
        self.graph.add_node(txn_id)

    # ------------------------------------------------------------------
    # conflict bookkeeping
    # ------------------------------------------------------------------
    def _edges_for(self, txn_id: int, key: str, is_write: bool) -> List[Tuple[int, int]]:
        """The conflict edges a granted operation would add (predecessor -> txn)."""
        edges: List[Tuple[int, int]] = []
        for writer in self._writers.get(key, ()):  # rw and ww conflicts
            if writer != txn_id:
                edges.append((writer, txn_id))
        if is_write:
            for reader in self._readers.get(key, ()):  # wr conflicts
                if reader != txn_id:
                    edges.append((reader, txn_id))
        return edges

    def _would_cycle(self, edges: List[Tuple[int, int]]) -> bool:
        trial = self.graph.copy()
        for source, target in edges:
            trial.add_edge(source, target)
        return trial.has_cycle()

    def _apply(self, txn_id: int, key: str, is_write: bool, edges) -> None:
        for source, target in edges:
            self.graph.add_edge(source, target)
        registry = self._writers if is_write else self._readers
        registry.setdefault(key, set()).add(txn_id)

    def _decide(self, txn_id: int, key: str, is_write: bool) -> Decision:
        # A pending (uncommitted, buffered) write by another transaction is a
        # barrier: granting now would let this operation observe or clobber a
        # value the conflict graph assumes it did not.  Wait for the writer;
        # if the wait would close a wait-for cycle, abort the requester.
        pending = self.pending_writers(key, exclude=txn_id)
        if pending:
            for writer in pending:
                self._wait_for.add_wait(txn_id, writer)
            cycle = self._wait_for.deadlocked_transactions()
            if cycle and txn_id in cycle:
                self._wait_for.remove_transaction(txn_id)
                return Decision.abort(
                    f"deadlock waiting for pending write on {key!r}",
                    code=ABORT_WAIT_DEADLOCK,
                    key=key,
                    conflict=pending,
                )
            return Decision.block(
                blocked_on=tuple(pending), reason=f"pending write on {key!r}"
            )
        self._wait_for.clear_waits(txn_id)

        edges = self._edges_for(txn_id, key, is_write)
        if self._would_cycle(edges):
            self.metrics.incr("sgt.cycles_prevented")
            return Decision.abort(
                f"serialization-graph cycle on {key!r} ({'write' if is_write else 'read'})",
                code=ABORT_SG_CYCLE,
                key=key,
                conflict=sorted({source for source, _ in edges}),
            )
        self._apply(txn_id, key, is_write, edges)
        return Decision.grant()

    def on_read(self, txn_id: int, key: str) -> Decision:
        return self._decide(txn_id, key, is_write=False)

    def on_write(self, txn_id: int, key: str, value: Any) -> Decision:
        return self._decide(txn_id, key, is_write=True)

    # ------------------------------------------------------------------
    # cleanup
    # ------------------------------------------------------------------
    def on_abort(self, txn_id: int) -> None:
        # An aborted transaction's operations never happened: drop its node
        # and its access records entirely.
        self.graph.remove_node(txn_id)
        for registry in (self._readers, self._writers):
            for key_set in registry.values():
                key_set.discard(txn_id)

    def on_finished(self, txn_id: int) -> None:
        self._wait_for.remove_transaction(txn_id)
        if txn_id in self.committed:
            self._prune()

    def _prune(self) -> None:
        """Forget committed transactions with no live predecessors.

        A committed transaction can only contribute to a future cycle if
        some still-active transaction precedes it in the graph; sources
        (no predecessors) that are committed can therefore be removed,
        which keeps the graph small in long runs.
        """
        changed = True
        while changed:
            changed = False
            for node in list(self.graph.nodes()):
                if node in self.committed and self.graph.in_degree(node) == 0:
                    self.graph.remove_node(node)
                    for registry in (self._readers, self._writers):
                        for key_set in registry.values():
                            key_set.discard(node)
                    changed = True
