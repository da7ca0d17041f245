"""Tests for cluster-based HIT generation: baselines, approximation, two-tiered."""

import pytest

from repro.graph.graph import Graph
from repro.hit.approximation import build_goldschmidt_sequence, cliques_from_sequence
from repro.hit.base import validate_cluster_cover
from repro.hit.generator import available_generators, get_cluster_generator
from repro.hit.partitioning import coverage_report, partition_all, partition_large_component
from repro.hit.two_tiered import TwoTieredClusterGenerator
from repro.records.pairs import PairSet, RecordPair
from repro.simjoin.likelihood import SimJoinLikelihood

ALL_GENERATORS = ["random", "bfs", "dfs", "approximation", "two-tiered"]


def chain_pairs(length):
    """A path graph r0-r1-...-r(length)."""
    pairs = PairSet()
    for index in range(length):
        pairs.add(RecordPair(f"v{index:03d}", f"v{index + 1:03d}", likelihood=0.5))
    return pairs


class TestGeneratorRegistry:
    def test_all_generators_registered(self):
        assert set(ALL_GENERATORS) <= set(available_generators())

    def test_unknown_generator(self):
        with pytest.raises(KeyError):
            get_cluster_generator("nope", cluster_size=4)

    def test_cluster_size_validation(self):
        with pytest.raises(ValueError):
            get_cluster_generator("two-tiered", cluster_size=1)


class TestAllGeneratorsProduceValidCovers:
    @pytest.mark.parametrize("name", ALL_GENERATORS)
    def test_paper_example_cover(self, name, example_pairs):
        generator = get_cluster_generator(name, cluster_size=4)
        batch = generator.generate(example_pairs)
        assert batch.is_valid_cover()
        assert batch.max_hit_size() <= 4
        validate_cluster_cover(batch.hits, example_pairs, cluster_size=4)

    @pytest.mark.parametrize("name", ALL_GENERATORS)
    def test_chain_graph_cover(self, name):
        pairs = chain_pairs(37)
        generator = get_cluster_generator(name, cluster_size=5)
        batch = generator.generate(pairs)
        assert batch.is_valid_cover()
        assert batch.max_hit_size() <= 5

    @pytest.mark.parametrize("name", ALL_GENERATORS)
    def test_small_restaurant_cover(self, name, small_restaurant):
        pairs = SimJoinLikelihood().estimate(small_restaurant.store, min_likelihood=0.3)
        generator = get_cluster_generator(name, cluster_size=6)
        batch = generator.generate(pairs)
        assert batch.is_valid_cover()
        assert batch.max_hit_size() <= 6

    @pytest.mark.parametrize("name", ALL_GENERATORS)
    def test_empty_pair_set(self, name):
        batch = get_cluster_generator(name, cluster_size=4).generate(PairSet())
        assert batch.hit_count == 0
        assert batch.is_valid_cover()

    @pytest.mark.parametrize("name", ALL_GENERATORS)
    def test_single_pair(self, name):
        pairs = PairSet([RecordPair("x", "y", likelihood=0.9)])
        batch = get_cluster_generator(name, cluster_size=4).generate(pairs)
        assert batch.hit_count == 1
        assert batch.is_valid_cover()


class TestTwoTiered:
    def test_optimal_on_paper_example(self, example_pairs):
        """Section 3.2: three cluster-based HITs suffice for the ten pairs (k=4)."""
        generator = TwoTieredClusterGenerator(cluster_size=4)
        batch = generator.generate(example_pairs)
        assert batch.hit_count == 3
        assert batch.is_valid_cover()

    def test_beats_or_matches_baselines(self, small_restaurant):
        pairs = SimJoinLikelihood().estimate(small_restaurant.store, min_likelihood=0.2)
        counts = {}
        for name in ALL_GENERATORS:
            batch = get_cluster_generator(name, cluster_size=8).generate(pairs)
            assert batch.is_valid_cover()
            counts[name] = batch.hit_count
        assert counts["two-tiered"] == min(counts.values())

    def test_stats_populated(self, example_pairs):
        generator = TwoTieredClusterGenerator(cluster_size=4)
        generator.generate(example_pairs)
        stats = generator.last_stats
        assert stats is not None
        assert stats.small_components == 1
        assert stats.large_components == 1
        assert stats.packed_hits == 3

    @pytest.mark.parametrize("packing_method", ["ffd", "branch-and-bound", "column-generation"])
    def test_all_packing_methods_valid(self, packing_method, example_pairs):
        generator = TwoTieredClusterGenerator(cluster_size=4, packing_method=packing_method)
        batch = generator.generate(example_pairs)
        assert batch.is_valid_cover()
        assert batch.hit_count == 3

    def test_larger_cluster_size_never_needs_more_hits(self, small_restaurant):
        pairs = SimJoinLikelihood().estimate(small_restaurant.store, min_likelihood=0.3)
        count_small = TwoTieredClusterGenerator(cluster_size=5).generate(pairs).hit_count
        count_large = TwoTieredClusterGenerator(cluster_size=10).generate(pairs).hit_count
        assert count_large <= count_small


class TestPartitioning:
    def test_example3_partition(self):
        """Reproduce Example 3: the LCC of Figure 5 partitions into 3 SCCs."""
        graph = Graph.from_edges(
            [
                ("r1", "r2"), ("r1", "r7"), ("r2", "r7"), ("r2", "r3"), ("r3", "r4"),
                ("r3", "r5"), ("r4", "r5"), ("r4", "r6"), ("r4", "r7"),
            ]
        )
        component = graph.vertices()
        sccs = partition_large_component(graph, component, cluster_size=4)
        assert len(sccs) == 3
        as_sets = [frozenset(scc) for scc in sccs]
        assert frozenset({"r3", "r4", "r5", "r6"}) in as_sets
        assert frozenset({"r1", "r2", "r3", "r7"}) in as_sets
        assert frozenset({"r4", "r7"}) in as_sets

    def test_first_scc_grown_in_paper_order(self):
        """Figure 8: the first SCC is seeded at r4 and grows r6, r5, r3."""
        graph = Graph.from_edges(
            [
                ("r1", "r2"), ("r1", "r7"), ("r2", "r7"), ("r2", "r3"), ("r3", "r4"),
                ("r3", "r5"), ("r4", "r5"), ("r4", "r6"), ("r4", "r7"),
            ]
        )
        sccs = partition_large_component(graph, graph.vertices(), cluster_size=4)
        assert sccs[0] == ["r4", "r6", "r5", "r3"]

    def test_partition_covers_all_edges(self, small_restaurant):
        pairs = SimJoinLikelihood().estimate(small_restaurant.store, min_likelihood=0.2)
        graph = Graph.from_pair_set(pairs)
        from repro.graph.components import split_components_by_size

        small, large = split_components_by_size(graph, 5)
        sccs = partition_all(graph, large, 5)
        for component in large:
            local = [scc for scc in sccs if set(scc) <= set(component)]
            report = coverage_report(graph, component, local)
            assert report["uncovered"] == 0

    def test_scc_sizes_bounded(self, small_restaurant):
        pairs = SimJoinLikelihood().estimate(small_restaurant.store, min_likelihood=0.2)
        graph = Graph.from_pair_set(pairs)
        from repro.graph.components import split_components_by_size

        _small, large = split_components_by_size(graph, 4)
        for component in large:
            for scc in partition_large_component(graph, component, 4):
                assert 2 <= len(scc) <= 4

    def test_tie_break_rules(self):
        graph = Graph.from_edges([("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "e")])
        for rule in ("min-outdegree", "max-outdegree", "lexical"):
            sccs = partition_large_component(graph, graph.vertices(), 3, tie_break=rule)
            covered = set()
            for scc in sccs:
                covered.update(graph.edges_within(scc))
            assert covered == graph.edge_keys()
        with pytest.raises(ValueError):
            partition_large_component(graph, graph.vertices(), 3, tie_break="nope")

    def test_invalid_cluster_size(self):
        graph = Graph.from_edges([("a", "b")])
        with pytest.raises(ValueError):
            partition_large_component(graph, graph.vertices(), 1)


class TestApproximation:
    def test_sequence_contains_all_vertices_and_edges(self, example_pairs):
        graph = Graph.from_pair_set(example_pairs)
        sequence = build_goldschmidt_sequence(graph)
        vertices = [element for element in sequence if isinstance(element, str)]
        edges = [element for element in sequence if isinstance(element, tuple)]
        assert sorted(vertices) == sorted(graph.vertices())
        assert sorted(edges) == sorted(graph.edges())

    def test_window_property_holds(self, example_pairs):
        """Any k-1 consecutive SEQ elements touch at most k distinct vertices."""
        graph = Graph.from_pair_set(example_pairs)
        sequence = build_goldschmidt_sequence(graph)
        k = 4
        for start in range(len(sequence) - (k - 1) + 1):
            window = sequence[start : start + k - 1]
            touched = set()
            for element in window:
                if isinstance(element, tuple):
                    touched.update(element)
            assert len(touched) <= k

    def test_cliques_cover_all_edges(self, example_pairs):
        graph = Graph.from_pair_set(example_pairs)
        sequence = build_goldschmidt_sequence(graph)
        cliques = cliques_from_sequence(sequence, cluster_size=4)
        covered = set()
        for clique in cliques:
            covered.update(graph.edges_within(clique))
        assert covered == graph.edge_keys()

    def test_generator_worse_than_two_tiered_on_example(self, example_pairs):
        approx = get_cluster_generator("approximation", cluster_size=4).generate(example_pairs)
        two_tiered = get_cluster_generator("two-tiered", cluster_size=4).generate(example_pairs)
        assert approx.hit_count >= two_tiered.hit_count


class TestBaselineBehaviour:
    def test_random_is_seeded(self, example_pairs):
        a = get_cluster_generator("random", cluster_size=4, seed=3).generate(example_pairs)
        b = get_cluster_generator("random", cluster_size=4, seed=3).generate(example_pairs)
        assert [hit.records for hit in a.hits] == [hit.records for hit in b.hits]

    def test_bfs_groups_connected_records(self):
        # A 5-star: BFS from the centre covers all edges in one HIT of size 6.
        pairs = PairSet([RecordPair("c", f"l{i}", likelihood=0.5) for i in range(5)])
        batch = get_cluster_generator("bfs", cluster_size=6).generate(pairs)
        assert batch.hit_count == 1

    def test_dfs_on_path_uses_more_hits_than_cluster_capacity_suggests(self):
        pairs = chain_pairs(20)
        batch = get_cluster_generator("dfs", cluster_size=5).generate(pairs)
        # A path of 21 vertices / 20 edges needs at least 5 HITs of size 5.
        assert batch.hit_count >= 5
        assert batch.is_valid_cover()


class TestTraversalOrder:
    """BFS/DFS fill each HIT in traversal order, truncated at ``k`` records."""

    @staticmethod
    def _hits(name, edges, cluster_size):
        pairs = PairSet([RecordPair(a, b, likelihood=0.5) for a, b in edges])
        batch = get_cluster_generator(name, cluster_size=cluster_size).generate(pairs)
        assert batch.is_valid_cover()
        return [hit.records for hit in batch.hits]

    def test_bfs_hit_goes_wide_first(self):
        # a's second neighbour d joins before b's neighbour c.
        hits = self._hits("bfs", [("a", "b"), ("b", "c"), ("a", "d")], cluster_size=3)
        assert hits[0] == ("a", "b", "d")

    def test_dfs_hit_goes_deep_first(self):
        # b's subtree (c) is explored before returning to d.
        hits = self._hits("dfs", [("a", "b"), ("b", "c"), ("a", "d")], cluster_size=3)
        assert hits[0] == ("a", "b", "c")

    @pytest.mark.parametrize("name", ("bfs", "dfs"))
    def test_first_hit_starts_at_the_first_inserted_vertex(self, name, example_pairs):
        first = Graph.from_pair_set(example_pairs).vertices()[0]
        batch = get_cluster_generator(name, cluster_size=4).generate(example_pairs)
        assert batch.hits[0].records[0] == first

    @pytest.mark.parametrize("name", ("bfs", "dfs"))
    def test_every_hit_holds_each_record_once(self, name, example_pairs):
        for cluster_size in (2, 3, 4, 5):
            batch = get_cluster_generator(name, cluster_size=cluster_size).generate(example_pairs)
            assert batch.is_valid_cover()
            for hit in batch.hits:
                assert 2 <= len(hit.records) <= cluster_size
                assert len(set(hit.records)) == len(hit.records)

    @pytest.mark.parametrize("name", ("bfs", "dfs"))
    def test_an_exhausted_component_restarts_in_the_next(self, name):
        """Small components are batched into one HIT, in insertion order."""
        hits = self._hits(name, [("a", "b"), ("c", "d")], cluster_size=4)
        assert hits == [("a", "b", "c", "d")]
