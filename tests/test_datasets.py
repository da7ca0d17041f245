"""Tests for the dataset generators and the Dataset container."""

import random

import pytest

from repro.datasets.base import Dataset
from repro.datasets.corruption import (
    abbreviate_tokens,
    drop_random_token,
    introduce_typo,
    swap_random_tokens,
)
from repro.datasets.paper_example import paper_example_matches, paper_example_store
from repro.datasets.product import ProductGenerator
from repro.datasets.product_dup import ProductDupGenerator
from repro.datasets.restaurant import RestaurantGenerator
from repro.records.record import Record, RecordStore


class TestCorruption:
    def setup_method(self):
        self.rng = random.Random(0)

    def test_swap_random_tokens_preserves_token_multiset(self):
        text = "apple ipod touch 8gb black"
        swapped = swap_random_tokens(text, self.rng)
        assert sorted(swapped.split()) == sorted(text.split())

    def test_swap_single_token_noop(self):
        assert swap_random_tokens("apple", self.rng) == "apple"

    def test_drop_random_token(self):
        text = "a b c"
        dropped = drop_random_token(text, self.rng)
        assert len(dropped.split()) == 2
        assert drop_random_token("a", self.rng) == "a"

    def test_introduce_typo_changes_one_token(self):
        text = "golden dragon cafe"
        typoed = introduce_typo(text, self.rng)
        assert typoed != text
        assert len(typoed.split()) == 3

    def test_introduce_typo_skips_short_tokens(self):
        assert introduce_typo("a b c", self.rng) == "a b c"

    def test_abbreviate_tokens(self):
        text = "55 east street"
        abbreviated = abbreviate_tokens(text, {"street": "st", "east": "e"}, self.rng, probability=1.0)
        assert abbreviated == "55 e st"


class TestDatasetContainer:
    def test_ground_truth_must_reference_known_records(self):
        store = RecordStore.from_records([Record("r1", {"n": "a"}), Record("r2", {"n": "b"})])
        with pytest.raises(ValueError):
            Dataset(name="bad", store=store, ground_truth=frozenset({("r1", "r9")}))

    def test_is_match_and_counts(self):
        store = RecordStore.from_records([Record("r1", {"n": "a"}), Record("r2", {"n": "a"})])
        dataset = Dataset(name="tiny", store=store, ground_truth=frozenset({("r2", "r1")}))
        assert dataset.is_match("r1", "r2")
        assert dataset.match_count == 1
        assert dataset.total_pair_count() == 1


class TestPaperExample:
    def test_store_shape(self):
        store = paper_example_store()
        assert len(store) == 9
        assert store.attribute_names() == ["product_name", "price"]

    def test_matches(self):
        matches = paper_example_matches()
        assert ("r1", "r2") in matches
        assert ("r3", "r4") in matches
        assert len(matches) == 4


class TestRestaurantGenerator:
    def test_record_and_match_counts(self):
        dataset = RestaurantGenerator(record_count=200, duplicate_pairs=30, seed=1).generate()
        assert dataset.record_count == 200
        assert dataset.match_count == 30
        assert dataset.store.attribute_names() == ["name", "address", "city", "type"]

    def test_deterministic_for_seed(self):
        a = RestaurantGenerator(record_count=100, duplicate_pairs=10, seed=5).generate()
        b = RestaurantGenerator(record_count=100, duplicate_pairs=10, seed=5).generate()
        assert [vars(r) for r in a.store] == [vars(r) for r in b.store]
        assert a.ground_truth == b.ground_truth

    def test_different_seeds_differ(self):
        a = RestaurantGenerator(record_count=100, duplicate_pairs=10, seed=1).generate()
        b = RestaurantGenerator(record_count=100, duplicate_pairs=10, seed=2).generate()
        assert [vars(r) for r in a.store] != [vars(r) for r in b.store]

    def test_duplicates_are_textually_similar(self, small_restaurant):
        from repro.similarity.record_similarity import JaccardRecordSimilarity

        similarity = JaccardRecordSimilarity()
        values = [
            similarity.similarity(small_restaurant.store.get(a), small_restaurant.store.get(b))
            for a, b in small_restaurant.ground_truth
        ]
        assert sum(value >= 0.3 for value in values) / len(values) > 0.8

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RestaurantGenerator(record_count=10, duplicate_pairs=6)


class TestProductGenerator:
    def test_two_source_structure(self, small_product):
        assert small_product.cross_sources == ("abt", "buy")
        abt = small_product.store.records_from_source("abt")
        buy = small_product.store.records_from_source("buy")
        assert len(abt) > 0 and len(buy) > 0
        assert len(abt) + len(buy) == small_product.record_count

    def test_matches_are_cross_source(self, small_product):
        for id_a, id_b in small_product.ground_truth:
            sources = {
                small_product.store.get(id_a).source,
                small_product.store.get(id_b).source,
            }
            assert sources == {"abt", "buy"}

    def test_match_count_formula(self):
        dataset = ProductGenerator(
            shared_entities=50, extra_buy_duplicates=7, abt_only=5, buy_only=3, seed=9
        ).generate()
        assert dataset.match_count == 57
        assert len(dataset.store.records_from_source("abt")) == 55
        assert len(dataset.store.records_from_source("buy")) == 60

    def test_deterministic(self):
        a = ProductGenerator(shared_entities=30, extra_buy_duplicates=3, seed=2).generate()
        b = ProductGenerator(shared_entities=30, extra_buy_duplicates=3, seed=2).generate()
        assert a.ground_truth == b.ground_truth

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ProductGenerator(shared_entities=0)
        with pytest.raises(ValueError):
            ProductGenerator(shared_entities=5, extra_buy_duplicates=9)
        with pytest.raises(ValueError):
            ProductGenerator(hard_fraction=2.0)


class TestProductDupGenerator:
    def test_construction_matches_paper(self):
        dataset = ProductDupGenerator(
            base_records=40, max_duplicates=9, seed=1, product_scale=0.1
        ).generate()
        # 40 base records plus up to 9 duplicates each.
        assert 40 <= dataset.record_count <= 40 * 10
        # Every match shares the same token multiset as its base (token swap only).
        for id_a, id_b in list(dataset.ground_truth)[:50]:
            tokens_a = sorted(dataset.store.get(id_a).get("name").split())
            tokens_b = sorted(dataset.store.get(id_b).get("name").split())
            assert tokens_a == tokens_b

    def test_duplicate_heavy(self):
        dataset = ProductDupGenerator(base_records=60, seed=2, product_scale=0.1).generate()
        # With U[0,9] duplicates per base record the expected number of matching
        # pairs is ~16.5 per base record; require it to be clearly duplicate-heavy.
        assert dataset.match_count > 5 * 60 / 2

    def test_base_records_bound(self):
        with pytest.raises(ValueError):
            ProductDupGenerator(base_records=10_000, product_scale=0.05).generate()

    def test_deterministic(self):
        a = ProductDupGenerator(base_records=20, seed=3, product_scale=0.1).generate()
        b = ProductDupGenerator(base_records=20, seed=3, product_scale=0.1).generate()
        assert a.ground_truth == b.ground_truth
