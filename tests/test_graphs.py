"""Unit tests for the shared directed-graph utilities."""

import pytest

from repro.util.graphs import DiGraph, WaitForGraph


class TestDiGraph:
    def test_add_and_query_edges(self):
        graph = DiGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        assert graph.has_edge("a", "b")
        assert graph.successors("a") == {"b"}
        assert graph.predecessors("c") == {"b"}
        assert graph.out_degree("a") == 1 and graph.in_degree("a") == 0
        assert len(graph) == 3

    def test_remove_node_cleans_both_directions(self):
        graph = DiGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.remove_node("b")
        assert "b" not in graph
        assert not graph.has_edge("a", "b")
        assert graph.predecessors("c") == set()

    def test_cycle_detection(self):
        graph = DiGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        assert not graph.has_cycle()
        graph.add_edge(3, 1)
        cycle = graph.find_cycle()
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert set(cycle[:-1]) == {1, 2, 3}

    def test_self_loop_is_a_cycle(self):
        graph = DiGraph()
        graph.add_edge("a", "a")
        assert graph.has_cycle()

    def test_topological_sort_respects_edges(self):
        graph = DiGraph()
        graph.add_edge("a", "c")
        graph.add_edge("b", "c")
        order = graph.topological_sort()
        assert order.index("a") < order.index("c")
        assert order.index("b") < order.index("c")

    def test_topological_sort_rejects_cycles(self):
        graph = DiGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 1)
        with pytest.raises(ValueError):
            graph.topological_sort()

    def test_all_topological_sorts(self):
        graph = DiGraph()
        graph.add_node("a")
        graph.add_node("b")
        assert len(graph.all_topological_sorts()) == 2
        graph.add_edge("c", "a")
        graph.add_edge("c", "b")
        sorts = graph.all_topological_sorts()
        assert all(order[0] == "c" for order in sorts)

    def test_all_topological_sorts_empty_for_cyclic(self):
        graph = DiGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 1)
        assert graph.all_topological_sorts() == []

    def test_reachability(self):
        graph = DiGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        graph.add_node(4)
        assert graph.reachable_from(1) == {2, 3}
        assert graph.reachable_from(4) == set()

    def test_undirected_connectivity(self):
        graph = DiGraph()
        graph.add_edge(1, 2)
        graph.add_node(3)
        assert not graph.is_connected_undirected()
        graph.add_edge(3, 2)
        assert graph.is_connected_undirected()

    def test_all_topological_sorts_of_empty_graph(self):
        assert DiGraph().all_topological_sorts() == [[]]

    def test_all_topological_sorts_respects_limit(self):
        graph = DiGraph()
        for node in range(6):
            graph.add_node(node)
        assert len(graph.all_topological_sorts(limit=10)) == 10

    def test_copy_is_deep_for_structure(self):
        graph = DiGraph()
        graph.add_edge(1, 2)
        clone = graph.copy()
        clone.add_edge(2, 1)
        assert not graph.has_cycle()
        assert clone.has_cycle()


class TestLargeGraphsStayIterative:
    """Conflict graphs can reach thousands of nodes; none of the graph
    helpers may recurse once per node, or Python's recursion limit turns
    a big simulation into a crash.  5k nodes is ~5x the default limit."""

    N = 5_000

    def _chain(self, close_cycle=False):
        graph = DiGraph()
        for i in range(self.N - 1):
            graph.add_edge(i, i + 1)
        if close_cycle:
            graph.add_edge(self.N - 1, 0)
        return graph

    def test_find_cycle_on_5k_node_cycle(self):
        graph = self._chain(close_cycle=True)
        cycle = graph.find_cycle()
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert len(cycle) == self.N + 1

    def test_topological_sort_on_5k_node_chain(self):
        graph = self._chain()
        order = graph.topological_sort()
        assert order == list(range(self.N))

    def test_all_topological_sorts_on_5k_node_chain(self):
        # a chain has exactly one order; the old recursive backtracker
        # recursed 5k deep here and died with RecursionError
        graph = self._chain()
        sorts = graph.all_topological_sorts(limit=1)
        assert sorts == [list(range(self.N))]

    def test_reachability_on_5k_node_chain(self):
        graph = self._chain()
        assert len(graph.reachable_from(0)) == self.N - 1


class TestWaitForGraph:
    def test_self_wait_ignored(self):
        wfg = WaitForGraph()
        wfg.add_wait(1, 1)
        assert len(wfg) == 0

    def test_deadlock_detection_and_resolution(self):
        wfg = WaitForGraph()
        wfg.add_wait(1, 2)
        assert wfg.deadlocked_transactions() == []
        wfg.add_wait(2, 1)
        assert set(wfg.deadlocked_transactions()) == {1, 2}
        wfg.remove_transaction(2)
        assert wfg.deadlocked_transactions() == []

    def test_clear_waits_keeps_incoming_edges(self):
        wfg = WaitForGraph()
        wfg.add_wait(1, 2)
        wfg.add_wait(3, 1)
        wfg.clear_waits(1)
        assert not wfg.has_edge(1, 2)
        assert wfg.has_edge(3, 1)
        assert wfg.predecessors(2) == set()

    def test_add_waits_adds_every_edge_and_skips_self(self):
        wfg = WaitForGraph()
        wfg.add_waits(1, [2, 1, 3])
        assert sorted(wfg.edges()) == [(1, 2), (1, 3)]
        assert wfg.predecessors(2) == {1} and wfg.predecessors(3) == {1}

    def test_add_waits_reports_whether_a_cycle_is_possible(self):
        wfg = WaitForGraph()
        # nobody 1 waits for is itself waiting: no path can lead back
        assert wfg.add_waits(1, [2, 3]) is False
        assert wfg.cycle_through(1) is None
        # 2 now waits for 1, and 1 waits for 2: a search is needed (and finds it)
        assert wfg.add_waits(2, [1]) is True
        assert wfg.cycle_through(2) == [2, 1, 2]
        # an earlier edge out of the waiter counts too
        wfg = WaitForGraph()
        wfg.add_wait(3, 4)
        wfg.add_wait(1, 3)
        assert wfg.add_waits(1, [2]) is True
