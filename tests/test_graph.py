"""Unit tests for the graph substrate."""

import pytest

from repro.graph.components import connected_components, split_components_by_size
from repro.graph.graph import Graph
from repro.records.pairs import PairSet, RecordPair


def build_example_graph():
    """The ten-edge pair graph of Figure 5."""
    edges = [
        ("r1", "r2"), ("r1", "r7"), ("r2", "r7"), ("r2", "r3"), ("r3", "r4"),
        ("r3", "r5"), ("r4", "r5"), ("r4", "r6"), ("r4", "r7"), ("r8", "r9"),
    ]
    return Graph.from_edges(edges)


class TestGraph:
    def test_add_edge_and_counts(self):
        graph = Graph()
        graph.add_edge("a", "b")
        graph.add_edge("a", "b")  # duplicate ignored
        assert graph.vertex_count == 2
        assert graph.edge_count == 1
        assert graph.has_edge("b", "a")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph().add_edge("a", "a")

    def test_degree_and_neighbors(self):
        graph = build_example_graph()
        assert graph.degree("r4") == 4
        assert set(graph.neighbors("r4")) == {"r3", "r5", "r6", "r7"}
        with pytest.raises(KeyError):
            graph.degree("missing")

    def test_max_degree_vertex(self):
        graph = build_example_graph()
        assert graph.max_degree_vertex() == "r4"
        assert graph.max_degree_vertex(["r8", "r9"]) in {"r8", "r9"}

    def test_remove_edge_and_vertex(self):
        graph = build_example_graph()
        graph.remove_edge("r8", "r9")
        assert not graph.has_edge("r8", "r9")
        graph.remove_vertex("r4")
        assert not graph.has_vertex("r4")
        assert not graph.has_edge("r3", "r4")

    def test_remove_edges_within(self):
        graph = build_example_graph()
        removed = graph.remove_edges_within(["r1", "r2", "r7"])
        assert removed == 3
        assert graph.edge_count == 7

    def test_edges_are_canonical_and_unique(self):
        graph = build_example_graph()
        edges = list(graph.edges())
        assert len(edges) == 10
        assert len(set(edges)) == 10
        assert all(a < b for a, b in edges)

    def test_subgraph(self):
        graph = build_example_graph()
        sub = graph.subgraph(["r1", "r2", "r7", "r8"])
        assert sub.vertex_count == 4
        assert sub.edge_count == 3  # r8 is isolated in the induced subgraph

    def test_edges_within(self):
        graph = build_example_graph()
        assert set(graph.edges_within(["r8", "r9"])) == {("r8", "r9")}

    def test_from_pair_set(self, simple_pairs):
        graph = Graph.from_pair_set(simple_pairs)
        assert graph.vertex_count == 5
        assert graph.edge_count == 4

    def test_copy_is_independent(self):
        graph = build_example_graph()
        clone = graph.copy()
        clone.remove_edge("r1", "r2")
        assert graph.has_edge("r1", "r2")


class TestComponents:
    def test_connected_components(self):
        graph = build_example_graph()
        components = connected_components(graph)
        sizes = sorted(len(component) for component in components)
        assert sizes == [2, 7]

    def test_isolated_vertex_is_own_component(self):
        graph = Graph()
        graph.add_vertex("lonely")
        graph.add_edge("a", "b")
        assert sorted(len(c) for c in connected_components(graph)) == [1, 2]

    def test_split_components_by_size(self):
        graph = build_example_graph()
        small, large = split_components_by_size(graph, cluster_size=4)
        assert [sorted(c) for c in small] == [["r8", "r9"]]
        assert len(large) == 1 and len(large[0]) == 7

    def test_split_rejects_tiny_cluster_size(self):
        with pytest.raises(ValueError):
            split_components_by_size(Graph(), cluster_size=1)

