"""Lightweight directed-graph utilities.

The theory side needs precedence (conflict) graphs and their cycles; the
engine side needs serialization graphs and wait-for graphs with dynamic
node/edge removal.  A tiny dependency-free digraph keeps those uses
uniform and easy to test.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

Node = Hashable


class DiGraph:
    """A simple directed graph with hashable nodes.

    Supports the operations the reproduction needs: edge insertion and
    removal, cycle detection, topological sorting, reachability, and
    extraction of one witness cycle (useful for deadlock-victim choice and
    for explaining non-serializability).
    """

    def __init__(self) -> None:
        self._succ: Dict[Node, Set[Node]] = {}
        self._pred: Dict[Node, Set[Node]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add a node (a no-op if it already exists)."""
        self._succ.setdefault(node, set())
        self._pred.setdefault(node, set())

    def add_edge(self, source: Node, target: Node) -> None:
        """Add a directed edge ``source -> target`` (nodes auto-created)."""
        succ, pred = self._succ, self._pred
        targets = succ.get(source)
        if targets is None:
            targets = succ[source] = set()
            pred[source] = set()
        sources = pred.get(target)
        if sources is None:
            succ[target] = set()
            sources = pred[target] = set()
        targets.add(target)
        sources.add(source)

    def remove_node(self, node: Node) -> None:
        """Remove a node and all edges incident to it (no-op if absent)."""
        if node not in self._succ:
            return
        for target in self._succ.pop(node):
            self._pred[target].discard(node)
        for source in self._pred.pop(node):
            self._succ[source].discard(node)

    def remove_edge(self, source: Node, target: Node) -> None:
        """Remove an edge if present."""
        if source in self._succ:
            self._succ[source].discard(target)
        if target in self._pred:
            self._pred[target].discard(source)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def nodes(self) -> List[Node]:
        return list(self._succ)

    def edges(self) -> List[Tuple[Node, Node]]:
        return [(u, v) for u, targets in self._succ.items() for v in targets]

    def successors(self, node: Node) -> Set[Node]:
        return set(self._succ.get(node, set()))

    def predecessors(self, node: Node) -> Set[Node]:
        return set(self._pred.get(node, set()))

    def has_edge(self, source: Node, target: Node) -> bool:
        return target in self._succ.get(source, set())

    def out_degree(self, node: Node) -> int:
        return len(self._succ.get(node, set()))

    def in_degree(self, node: Node) -> int:
        return len(self._pred.get(node, set()))

    # ------------------------------------------------------------------
    # algorithms
    # ------------------------------------------------------------------
    def has_cycle(self) -> bool:
        """Whether the graph contains a directed cycle."""
        return self.find_cycle() is not None

    def find_cycle(self) -> Optional[List[Node]]:
        """Return one directed cycle as a node list, or ``None`` if acyclic.

        The returned list ``[v_0, v_1, ..., v_k]`` satisfies
        ``v_0 == v_k`` and every consecutive pair is an edge.
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[Node, int] = {node: WHITE for node in self._succ}
        parent: Dict[Node, Optional[Node]] = {}

        for root in self._succ:
            if color[root] != WHITE:
                continue
            stack: List[Tuple[Node, Iterator[Node]]] = [(root, iter(self._succ[root]))]
            color[root] = GRAY
            parent[root] = None
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if color[child] == WHITE:
                        color[child] = GRAY
                        parent[child] = node
                        stack.append((child, iter(self._succ[child])))
                        advanced = True
                        break
                    if color[child] == GRAY:
                        # found a back edge node -> child: rebuild the cycle
                        cycle = [node]
                        current = node
                        while current != child:
                            current = parent[current]
                            cycle.append(current)
                        cycle.reverse()
                        cycle.append(cycle[0])
                        return cycle
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None

    def topological_sort(self) -> List[Node]:
        """Kahn's algorithm; raises :class:`ValueError` if the graph has a cycle."""
        in_degree = {node: len(self._pred[node]) for node in self._succ}
        queue = deque(sorted((n for n, d in in_degree.items() if d == 0), key=repr))
        order: List[Node] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for target in sorted(self._succ[node], key=repr):
                in_degree[target] -= 1
                if in_degree[target] == 0:
                    queue.append(target)
        if len(order) != len(self._succ):
            raise ValueError("graph contains a cycle; no topological order exists")
        return order

    def all_topological_sorts(self, limit: Optional[int] = None) -> List[List[Node]]:
        """All topological orders (up to ``limit``); empty if the graph is cyclic.

        The enumeration backtracks with an explicit stack of choice
        iterators (one per prefix position) rather than recursion, so
        graphs with thousands of nodes — e.g. large conflict graphs —
        never hit Python's recursion limit.
        """
        if self.has_cycle():
            return []
        total = len(self._succ)
        if total == 0:
            return [[]]  # the empty graph has exactly one (empty) order
        in_degree = {node: len(self._pred[node]) for node in self._succ}
        results: List[List[Node]] = []
        order: List[Node] = []
        placed: Set[Node] = set()

        def available() -> Iterator[Node]:
            return iter(
                sorted(
                    (n for n, d in in_degree.items() if d == 0 and n not in placed),
                    key=repr,
                )
            )

        def apply(node: Node) -> None:
            order.append(node)
            placed.add(node)
            for target in self._succ[node]:
                in_degree[target] -= 1

        def undo() -> None:
            node = order.pop()
            placed.discard(node)
            for target in self._succ[node]:
                in_degree[target] += 1

        # stack[i] iterates the candidates for prefix position i;
        # invariant at loop top: len(order) == len(stack) - 1
        stack: List[Iterator[Node]] = [available()]
        while stack:
            if limit is not None and len(results) >= limit:
                break
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                if order:
                    undo()
                continue
            apply(node)
            if len(order) == total:
                results.append(list(order))
                undo()
            else:
                stack.append(available())
        return results

    def reachable_from(self, node: Node) -> Set[Node]:
        """The set of nodes reachable from ``node`` (excluding ``node`` unless on a cycle)."""
        seen: Set[Node] = set()
        frontier = list(self._succ.get(node, set()))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self._succ.get(current, set()))
        return seen

    def is_connected_undirected(self) -> bool:
        """Whether the underlying undirected graph is connected (empty graph counts)."""
        if not self._succ:
            return True
        nodes = list(self._succ)
        seen = {nodes[0]}
        frontier = [nodes[0]]
        while frontier:
            current = frontier.pop()
            for neighbour in self._succ[current] | self._pred[current]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(nodes)

    def copy(self) -> "DiGraph":
        clone = DiGraph()
        for node in self._succ:
            clone.add_node(node)
        for u, v in self.edges():
            clone.add_edge(u, v)
        return clone


class WaitForGraph(DiGraph):
    """A wait-for graph for deadlock detection in the lock manager.

    Nodes are transaction identifiers; an edge ``A -> B`` means A waits
    for a lock held by B.  Deadlock exists iff the graph has a cycle.
    """

    def add_wait(self, waiter: Node, holder: Node) -> None:
        """Record that ``waiter`` is blocked on a lock held by ``holder``."""
        if waiter == holder:
            return
        self.add_edge(waiter, holder)

    def add_waits(self, waiter: Node, holders: Iterable[Node]) -> bool:
        """Record that ``waiter`` is blocked on every one of ``holders``.

        Returns whether the new edges can have closed a cycle at all:
        any cycle through the waiter continues from a transaction it
        waits for, so when none of those has an outgoing wait edge no
        path leads back and :meth:`cycle_through` would return ``None``
        — the lock manager then skips the search.  Leftover edges only
        ever turn the answer to ``True`` (search anyway), never hide a
        cycle.
        """
        succ, pred = self._succ, self._pred
        targets = succ.get(waiter)
        if targets is None:
            targets = succ[waiter] = set()
            pred[waiter] = set()
        for holder in holders:
            if holder == waiter:
                continue
            sources = pred.get(holder)
            if sources is None:
                succ[holder] = set()
                sources = pred[holder] = set()
            targets.add(holder)
            sources.add(waiter)
        for holder in targets:
            if succ[holder]:
                return True
        return False

    def remove_transaction(self, txn: Node) -> None:
        """Forget a transaction entirely (on commit or abort)."""
        self.remove_node(txn)

    def clear_waits(self, waiter: Node) -> None:
        """Remove the waiter's outgoing edges only (its lock request was granted).

        Edges *into* the waiter — other transactions blocked on locks it
        still holds — must survive, otherwise later deadlock cycles would
        go undetected.
        """
        targets = self._succ.get(waiter)
        if targets:
            pred = self._pred
            for holder in targets:
                pred[holder].discard(waiter)
            targets.clear()

    def cycle_through(self, start: Node) -> Optional[List[Node]]:
        """A directed cycle through ``start``, or ``None``.

        Deadlock detection calls this once per new wait edge: any cycle
        a ``waiter -> holder`` edge closes necessarily passes through the
        waiter, so a reachability search from the waiter back to itself
        is complete for the just-added edges — and costs O(reachable
        subgraph) instead of the whole-graph scan of :meth:`find_cycle`,
        which dominated engine profiles at 1,000 clients (every blocked
        request re-walked every parked transaction).

        Returns the same ``[v_0, ..., v_k]`` shape as :meth:`find_cycle`
        (``v_0 == v_k == start``).
        """
        if start not in self._succ:
            return None
        succ = self._succ
        stack: List[Tuple[Node, Iterator[Node]]] = [(start, iter(succ[start]))]
        path: List[Node] = [start]
        visited = {start}
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child == start:
                    path.append(start)
                    return path
                if child not in visited:
                    visited.add(child)
                    stack.append((child, iter(succ.get(child, ()))))
                    path.append(child)
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                path.pop()
        return None

    def deadlocked_transactions(self, through: Optional[Node] = None) -> List[Node]:
        """Transactions involved in some deadlock cycle (empty list if none).

        With ``through`` set, only cycles containing that transaction are
        considered — the right question after adding its wait edges, and
        far cheaper than scanning the whole graph (see
        :meth:`cycle_through`).
        """
        if through is not None:
            # a cycle through a node needs an edge *into* it: a waiter
            # nobody waits for (it holds nothing anyone queued for) is
            # on none, however long the queue it just joined
            cycle = self.cycle_through(through) if self._pred.get(through) else None
        else:
            cycle = self.find_cycle()
        if cycle is None:
            return []
        return list(dict.fromkeys(cycle[:-1]))
