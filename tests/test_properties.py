"""Property-based tests (hypothesis) for the core invariants."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from strategies import pair_sets, short_text, token_sets, vertex_ids

from repro.aggregation.dawid_skene import DawidSkeneAggregator
from repro.aggregation.majority import majority_vote
from repro.hit import packing
from repro.hit.comparisons import comparisons_for_entity_sizes
from repro.hit.generator import get_cluster_generator
from repro.hit.packing import (
    branch_and_bound_packing,
    column_generation_packing,
    first_fit_decreasing,
    size_lower_bound,
)
from repro.hit.pair_generation import PairHITGenerator
from repro.records.pairs import canonical_pair
from repro.records.preprocessing import normalize_text
from repro.similarity.edit_distance import levenshtein_distance, levenshtein_similarity
from repro.similarity.set_similarity import dice_similarity, jaccard_similarity, overlap_coefficient

# ------------------------------------------------------------ similarity
class TestSimilarityProperties:
    @given(token_sets, token_sets)
    def test_set_similarities_bounded_and_symmetric(self, a, b):
        for function in (jaccard_similarity, dice_similarity, overlap_coefficient):
            value = function(a, b)
            assert 0.0 <= value <= 1.0
            assert value == function(b, a)

    @given(token_sets)
    def test_self_similarity_is_one(self, tokens):
        assert jaccard_similarity(tokens, tokens) == 1.0
        assert dice_similarity(tokens, tokens) == 1.0

    @given(token_sets, token_sets)
    def test_jaccard_below_dice_below_overlap(self, a, b):
        # Standard ordering: J <= Dice and Dice <= Overlap for non-empty sets.
        if a and b:
            assert jaccard_similarity(a, b) <= dice_similarity(a, b) + 1e-12
            assert dice_similarity(a, b) <= overlap_coefficient(a, b) + 1e-12

    @given(short_text, short_text)
    def test_levenshtein_symmetry_and_bounds(self, a, b):
        distance = levenshtein_distance(a, b)
        assert distance == levenshtein_distance(b, a)
        assert abs(len(a) - len(b)) <= distance <= max(len(a), len(b))
        assert 0.0 <= levenshtein_similarity(a, b) <= 1.0

    @given(short_text, short_text, short_text)
    def test_levenshtein_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= levenshtein_distance(a, b) + levenshtein_distance(b, c)

    @given(short_text)
    def test_normalize_text_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once
        assert once == once.lower()


# ------------------------------------------------------------------ pairs
class TestPairProperties:
    @given(vertex_ids, vertex_ids)
    def test_canonical_pair_symmetric(self, a, b):
        if a == b:
            return
        assert canonical_pair(a, b) == canonical_pair(b, a)
        assert canonical_pair(a, b)[0] < canonical_pair(a, b)[1]

    @given(pair_sets())
    def test_pair_set_filter_is_subset(self, pairs):
        filtered = pairs.filter_by_likelihood(0.5)
        assert filtered.to_key_set() <= pairs.to_key_set()


# ---------------------------------------------------------------- packing
class TestPackingProperties:
    sizes_strategy = st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=25)

    @given(sizes_strategy)
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_all_solvers_feasible_and_bounded(self, sizes):
        capacity = 6
        lower = size_lower_bound(sizes, capacity)
        for solver in (first_fit_decreasing, branch_and_bound_packing, column_generation_packing):
            solution = solver(sizes, capacity)
            assert solution.is_feasible()
            assert solution.bin_count >= lower
            # FFD guarantee: no solver should be worse than one bin per item.
            assert solution.bin_count <= max(len(sizes), lower)

    @given(sizes_strategy)
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_exact_solver_never_worse_than_ffd(self, sizes):
        capacity = 6
        exact = branch_and_bound_packing(sizes, capacity)
        ffd = first_fit_decreasing(sizes, capacity)
        assert exact.bin_count <= ffd.bin_count

    @given(sizes_strategy, st.integers(min_value=6, max_value=12))
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_column_generation_between_its_bound_and_ffd(self, sizes, capacity):
        solution = column_generation_packing(sizes, capacity)
        assert solution.is_feasible()
        assert size_lower_bound(sizes, capacity) <= solution.lower_bound <= solution.bin_count
        assert solution.bin_count <= first_fit_decreasing(sizes, capacity).bin_count

    @given(sizes_strategy, st.integers(min_value=6, max_value=12))
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_ffd_at_the_bound_solves_no_lp(self, sizes, capacity):
        """When FFD meets ceil(total/capacity) the count is proven: column
        generation returns it without one ``linprog`` call, and the exact
        solver agrees."""
        bound = size_lower_bound(sizes, capacity)
        assume(first_fit_decreasing(sizes, capacity).bin_count == bound)

        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called although FFD met the bound")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(packing, "linprog", no_lp)
            solution = column_generation_packing(sizes, capacity)
        assert solution.is_feasible()
        assert solution.bin_count == solution.lower_bound == bound
        assert branch_and_bound_packing(sizes, capacity).bin_count == bound


# ----------------------------------------------------------- HIT covers
class TestHITGenerationProperties:
    @given(pair_sets(), st.sampled_from(["two-tiered", "bfs", "dfs", "random", "approximation"]))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_generator_produces_valid_bounded_cover(self, pairs, name):
        cluster_size = 5
        batch = get_cluster_generator(name, cluster_size=cluster_size).generate(pairs)
        assert batch.is_valid_cover()
        assert batch.max_hit_size() <= cluster_size

    @given(pair_sets(), st.integers(min_value=1, max_value=7))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_pair_generation_partitions_pairs(self, pairs, pairs_per_hit):
        batch = PairHITGenerator(pairs_per_hit=pairs_per_hit).generate(pairs)
        listed = [pair for hit in batch.hits for pair in hit.pairs]
        assert sorted(listed) == sorted(pairs.keys())
        assert all(hit.size <= pairs_per_hit for hit in batch.hits)

    @given(pair_sets())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_two_tiered_never_needs_more_hits_than_pairs(self, pairs):
        batch = get_cluster_generator("two-tiered", cluster_size=5).generate(pairs)
        assert batch.hit_count <= len(pairs)


# ------------------------------------------------------------ comparisons
class TestComparisonProperties:
    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8))
    def test_equation_one_bounds(self, entity_sizes):
        n = sum(entity_sizes)
        comparisons = comparisons_for_entity_sizes(entity_sizes)
        assert (n - 1) <= comparisons <= n * (n - 1) // 2 or n == 1

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8))
    def test_descending_order_minimises_comparisons(self, entity_sizes):
        # Equation 2: identifying the largest entities first needs the fewest
        # comparisons (and any order is a permutation between the extremes).
        ascending = comparisons_for_entity_sizes(sorted(entity_sizes))
        descending = comparisons_for_entity_sizes(sorted(entity_sizes, reverse=True))
        assert descending <= ascending


# ------------------------------------------------------------ aggregation
class TestAggregationProperties:
    votes_strategy = st.lists(
        st.tuples(
            st.sampled_from(["w1", "w2", "w3", "w4"]),
            st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["x", "y", "z"])),
            st.booleans(),
        ),
        min_size=1,
        max_size=40,
    )

    @given(votes_strategy)
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_posteriors_and_fractions_bounded(self, votes):
        fractions = majority_vote(votes)
        assert all(0.0 <= value <= 1.0 for value in fractions.values())
        posteriors = DawidSkeneAggregator(max_iterations=20).aggregate(votes)
        assert set(posteriors) == set(fractions)
        assert all(0.0 <= value <= 1.0 for value in posteriors.values())
