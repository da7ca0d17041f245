"""Walkthrough test: reproduce the paper's running example end to end.

Covers Table 1, Example 1 / Figure 2 (machine pruning at threshold 0.3),
Section 3.2 (the optimal three-HIT cover for k=4), Example 2 (the
approximation algorithm needs more HITs), Example 3 / Figure 8 (the
two-tiered partition of the large connected component) and Example 4 /
Figure 9 (three comparisons for the HIT {r1, r2, r3, r7}).
"""

import pytest
from packing_oracle import branch_and_bound_packing

from repro.datasets.paper_example import paper_example_matches, paper_example_store
from repro.graph.components import split_components_with_labels
from repro.graph.graph import Graph
from repro.hit.approximation import ApproximationClusterGenerator
from repro.hit.base import ClusterBasedHIT
from repro.hit.comparisons import cluster_hit_comparisons
from repro.hit.packing import pack_components
from repro.hit.partitioning import partition_large_component
from repro.hit.two_tiered import TwoTieredClusterGenerator
from repro.similarity.record_similarity import JaccardRecordSimilarity
from repro.similarity.set_similarity import jaccard_similarity
from repro.simjoin.allpairs import all_pairs_similarity


@pytest.fixture(scope="module")
def store():
    return paper_example_store()


@pytest.fixture(scope="module")
def figure2_pairs(store):
    similarity = JaccardRecordSimilarity(attributes=["product_name"])
    return all_pairs_similarity(store, similarity=similarity, min_likelihood=0.3)


class TestSection2:
    def test_jaccard_values_from_section_2_1(self, store):
        """J(r1, r2) = 0.57 and J(r1, r3) = 0.25 as computed in the paper."""
        similarity = JaccardRecordSimilarity(attributes=["product_name"])
        assert similarity.similarity(store.get("r1"), store.get("r2")) == pytest.approx(0.571, abs=1e-3)
        assert similarity.similarity(store.get("r1"), store.get("r3")) == pytest.approx(0.25)

    def test_figure_2a_ten_pairs(self, figure2_pairs):
        """Example 1: the 0.3 threshold keeps exactly ten of the 36 pairs."""
        assert len(figure2_pairs) == 10

    def test_figure_2c_matching_pairs(self):
        assert paper_example_matches() == frozenset(
            {("r1", "r2"), ("r1", "r7"), ("r2", "r7"), ("r3", "r4")}
        )


class TestSection3:
    def test_optimal_three_hit_cover(self, figure2_pairs):
        """Section 3.2: H1, H2, H3 of size <= 4 cover all ten pairs."""
        hits = [
            ClusterBasedHIT("H1", ("r1", "r2", "r3", "r7")),
            ClusterBasedHIT("H2", ("r3", "r4", "r5", "r6")),
            ClusterBasedHIT("H3", ("r4", "r7", "r8", "r9")),
        ]
        covered = set()
        for hit in hits:
            covered |= hit.checkable_pairs() & set(figure2_pairs.keys())
        assert covered == set(figure2_pairs.keys())


class TestSection4:
    def test_example_2_approximation_needs_more_hits(self, figure2_pairs):
        """The k-clique approximation needs clearly more than the optimal 3 HITs.

        The paper's Example 2 obtains seven; the exact count depends on the
        (arbitrary) vertex selection order, so we only require it to be
        strictly worse than the optimum and a valid cover.
        """
        batch = ApproximationClusterGenerator(cluster_size=4).generate(figure2_pairs)
        assert batch.is_valid_cover()
        assert batch.hit_count > 3


class TestSection5:
    def test_figure_5_components(self, figure2_pairs):
        graph = Graph.from_pair_set(figure2_pairs)
        small, large, _labels = split_components_with_labels(graph, cluster_size=4)
        assert [sorted(component) for component in small] == [["r8", "r9"]]
        assert sorted(large[0]) == ["r1", "r2", "r3", "r4", "r5", "r6", "r7"]

    def test_example_3_partition(self, figure2_pairs):
        """The LCC partitions into {r3,r4,r5,r6}, {r1,r2,r3,r7} and {r4,r7}."""
        graph = Graph.from_pair_set(figure2_pairs)
        _small, large, _labels = split_components_with_labels(graph, cluster_size=4)
        sccs = partition_large_component(graph, large[0], cluster_size=4)
        as_sets = {frozenset(scc) for scc in sccs}
        assert as_sets == {
            frozenset({"r3", "r4", "r5", "r6"}),
            frozenset({"r1", "r2", "r3", "r7"}),
            frozenset({"r4", "r7"}),
        }

    def test_section_5_3_packing(self):
        """Packing {r3..r6}, {r1,r2,r3,r7}, {r4,r7}, {r8,r9} needs 3 HITs (k=4)."""
        components = [
            ["r3", "r4", "r5", "r6"],
            ["r1", "r2", "r3", "r7"],
            ["r4", "r7"],
            ["r8", "r9"],
        ]
        assert len(pack_components(components, cluster_size=4)) == 3
        assert branch_and_bound_packing([4, 4, 2, 2], 4).bin_count == 3

    def test_two_tiered_end_to_end_three_hits(self, figure2_pairs):
        batch = TwoTieredClusterGenerator(cluster_size=4).generate(figure2_pairs)
        assert batch.hit_count == 3
        assert batch.is_valid_cover()


class TestSection6:
    def test_example_4_three_comparisons(self):
        """The HIT {r1, r2, r3, r7} with e1={r1,r2,r7}, e2={r3} needs 3 comparisons."""
        hit = ClusterBasedHIT("H1", ("r1", "r2", "r3", "r7"))
        comparisons = cluster_hit_comparisons(hit, paper_example_matches(), order="as-given")
        assert comparisons == 3

    def test_extreme_cases_of_section_6(self):
        """No duplicates -> n(n-1)/2; all duplicates -> n-1."""
        records = tuple(f"x{i}" for i in range(5))
        hit = ClusterBasedHIT("H", records)
        assert cluster_hit_comparisons(hit, []) == 10
        all_matches = [(records[0], other) for other in records[1:]]
        assert cluster_hit_comparisons(hit, all_matches) == 4
