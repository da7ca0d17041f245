"""Unit tests for the machine pass: joins and likelihood estimation."""


from repro.similarity.record_similarity import JaccardRecordSimilarity
from repro.simjoin.allpairs import all_pairs_similarity
from repro.simjoin.likelihood import SimJoinLikelihood


class TestAllPairs:
    def test_scores_every_pair_at_zero_threshold(self, example_store):
        pairs = all_pairs_similarity(example_store, min_likelihood=0.0)
        assert len(pairs) == 9 * 8 // 2

    def test_threshold_filters(self, example_store):
        similarity = JaccardRecordSimilarity(attributes=["product_name"])
        pairs = all_pairs_similarity(example_store, similarity=similarity, min_likelihood=0.3)
        assert len(pairs) == 10

    def test_reproduces_figure_2a(self, example_pairs):
        expected = {
            ("r1", "r2"), ("r1", "r7"), ("r2", "r3"), ("r2", "r7"), ("r3", "r4"),
            ("r3", "r5"), ("r4", "r5"), ("r4", "r6"), ("r4", "r7"), ("r8", "r9"),
        }
        assert example_pairs.to_key_set() == frozenset(expected)

    def test_cross_source_restriction(self, small_product):
        pairs = all_pairs_similarity(
            small_product.store,
            min_likelihood=0.0,
            cross_sources=("abt", "buy"),
        )
        abt = len(small_product.store.records_from_source("abt"))
        buy = len(small_product.store.records_from_source("buy"))
        assert len(pairs) == abt * buy


class TestLikelihoodEstimators:
    def test_simjoin_auto_and_naive_agree(self, small_restaurant):
        threshold = 0.35
        fast = SimJoinLikelihood(backend="auto").estimate(
            small_restaurant.store, min_likelihood=threshold
        )
        slow = SimJoinLikelihood(backend="naive").estimate(
            small_restaurant.store, min_likelihood=threshold
        )
        assert fast.to_key_set() == slow.to_key_set()

    def test_simjoin_zero_threshold_returns_all_pairs(self, example_store):
        pairs = SimJoinLikelihood().estimate(example_store, min_likelihood=0.0)
        assert len(pairs) == 36
