"""Tests for the incremental union-find with dirty-component tracking."""

import pytest

from repro.graph.components import labeled_components, split_components_with_labels
from repro.graph.graph import Graph
from repro.graph.union_find import IncrementalUnionFind


class TestIncrementalUnionFind:
    def test_singletons_start_dirty(self):
        uf = IncrementalUnionFind()
        assert uf.add("a")
        assert not uf.add("a")  # re-adding is a no-op
        assert uf.dirty_roots() == {"a"}
        assert uf.component_count == 1

    def test_union_merges_and_dirties(self):
        uf = IncrementalUnionFind()
        uf.union("a", "b")
        uf.union("c", "d")
        assert uf.component_count == 2
        assert uf.find("a") == uf.find("b")
        assert uf.find("a") != uf.find("c")
        uf.clear_dirty()
        assert uf.dirty_roots() == set()
        root = uf.union("b", "c")
        assert uf.find("a") == uf.find("d") == root
        assert uf.dirty_roots() == {root}
        assert sorted(uf.members(root)) == ["a", "b", "c", "d"]

    def test_internal_edge_dirties_component(self):
        uf = IncrementalUnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        uf.clear_dirty()
        uf.union("a", "c")  # already connected, but a new edge arrived
        assert uf.dirty_roots() == {uf.find("b")}

    def test_dirtiness_survives_merges(self):
        uf = IncrementalUnionFind()
        uf.union("a", "b")
        uf.union("c", "d")
        uf.union("c", "e")
        uf.clear_dirty()
        uf.union("a", "b")  # dirty the small component only
        # Merge the dirty component into a larger clean one: still dirty.
        root = uf.union("e", "a")
        assert uf.dirty_roots() == {root} == {uf.find("d")}

    def test_tallies_sum_on_union_and_vanish_on_detach(self):
        uf = IncrementalUnionFind(width=2)
        uf.union("a", "b")
        uf.union("c", "d")
        uf.tally("a", 0, 2)
        uf.tally("b", 1)
        uf.tally("d", 0, 5)
        assert uf.totals([uf.find("a")]) == [2, 1]
        root = uf.union("b", "c")
        assert uf.totals([root]) == [7, 1]
        uf.add("z")
        assert uf.totals([root, uf.find("z")]) == [7, 1]
        assert uf.totals([]) == [0, 0]
        # A dissolved component's tallies go with it: survivors start at zero.
        survivors = uf.detach(["a"])
        assert sorted(survivors) == ["b", "c", "d"]
        assert uf.totals({uf.find(member) for member in survivors}) == [0, 0]

    def test_matches_batch_connected_components(self):
        """Incremental unions agree with the batch BFS on the same edges."""
        edges = [("a", "b"), ("b", "c"), ("d", "e"), ("f", "g"), ("g", "a")]
        graph = Graph.from_edges(edges)
        uf = IncrementalUnionFind()
        for u, v in edges:
            uf.union(u, v)
        components, labels = labeled_components(graph)
        for component in components:
            roots = {uf.find(vertex) for vertex in component}
            assert len(roots) == 1
        assert uf.component_count == len(components)
        # The label map groups vertices exactly like the union-find roots.
        for u in graph.vertices():
            for v in graph.vertices():
                assert (labels[u] == labels[v]) == (uf.find(u) == uf.find(v))


class TestLabeledComponents:
    def test_labels_match_component_lists(self):
        graph = Graph.from_edges([("a", "b"), ("c", "d"), ("d", "e")])
        graph.add_vertex("lonely")
        components, labels = labeled_components(graph)
        assert len(components) == 3
        for index, component in enumerate(components):
            for vertex in component:
                assert labels[vertex] == index
        assert set(labels) == set(graph.vertices())

    def test_split_with_labels_consistent(self):
        graph = Graph.from_edges(
            [("a", "b"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "g")]
        )
        small, large, labels = split_components_with_labels(graph, cluster_size=3)
        assert [sorted(c) for c in small] == [["a", "b"]]
        assert [sorted(c) for c in large] == [["c", "d", "e", "f", "g"]]
        # Two vertices share a component iff their labels agree.
        assert labels["c"] == labels["g"]
        assert labels["a"] != labels["c"]

    def test_split_with_labels_rejects_small_cluster_size(self):
        with pytest.raises(ValueError):
            split_components_with_labels(Graph(), cluster_size=1)
