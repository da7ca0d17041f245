"""Unit tests for similarity functions and feature extraction."""

import math

import numpy as np
import pytest

from repro.records.record import Record, RecordStore
from repro.similarity.edit_distance import levenshtein_distance, levenshtein_similarity
from repro.similarity.feature_vectors import FeatureExtractor, FeatureSpec
from repro.similarity.record_similarity import AttributeSimilarity, JaccardRecordSimilarity
from repro.similarity.set_similarity import (
    cosine_token_similarity,
    dice_similarity,
    jaccard_similarity,
    overlap_coefficient,
)


class TestSetSimilarities:
    def test_jaccard_paper_example(self):
        # J(r1, r2) = 4/7 from Section 2.1.1 of the paper.
        tokens_r1 = {"ipad", "two", "16gb", "wifi", "white"}
        tokens_r2 = {"ipad", "2nd", "generation", "16gb", "wifi", "white"}
        assert jaccard_similarity(tokens_r1, tokens_r2) == pytest.approx(4 / 7)

    def test_jaccard_disjoint_and_identical(self):
        assert jaccard_similarity({"a"}, {"b"}) == 0.0
        assert jaccard_similarity({"a", "b"}, {"a", "b"}) == 1.0

    def test_jaccard_empty_conventions(self):
        assert jaccard_similarity(set(), set()) == 1.0
        assert jaccard_similarity({"a"}, set()) == 0.0

    def test_overlap_coefficient(self):
        assert overlap_coefficient({"a", "b"}, {"a", "c", "d"}) == pytest.approx(0.5)
        assert overlap_coefficient(set(), {"a"}) == 0.0

    def test_dice(self):
        assert dice_similarity({"a", "b"}, {"a", "c"}) == pytest.approx(0.5)

    def test_cosine_token_similarity(self):
        assert cosine_token_similarity(["a", "b"], ["a", "b"]) == pytest.approx(1.0)
        assert cosine_token_similarity(["a"], ["b"]) == 0.0
        value = cosine_token_similarity(["a", "a", "b"], ["a"])
        assert value == pytest.approx(2 / math.sqrt(5))

    def test_symmetry(self):
        a, b = {"x", "y", "z"}, {"y", "z", "w"}
        for function in (jaccard_similarity, overlap_coefficient, dice_similarity):
            assert function(a, b) == function(b, a)


class TestEditDistances:
    def test_levenshtein_classic(self):
        assert levenshtein_distance("kitten", "sitting") == 3
        assert levenshtein_distance("", "abc") == 3
        assert levenshtein_distance("abc", "abc") == 0

    def test_levenshtein_similarity_bounds(self):
        assert levenshtein_similarity("abc", "abc") == 1.0
        assert levenshtein_similarity("", "") == 1.0
        assert levenshtein_similarity("abc", "xyz") == 0.0

    def test_levenshtein_symmetric(self):
        assert levenshtein_distance("flaw", "lawn") == levenshtein_distance("lawn", "flaw")


class TestRecordSimilarity:
    def test_jaccard_record_similarity_all_attributes(self):
        a = Record("r1", {"name": "ipad two 16gb", "price": "490"})
        b = Record("r2", {"name": "ipad 16gb", "price": "490"})
        value = JaccardRecordSimilarity().similarity(a, b)
        assert value == pytest.approx(3 / 4)

    def test_jaccard_record_similarity_restricted_attributes(self, example_store):
        similarity = JaccardRecordSimilarity(attributes=["product_name"])
        value = similarity.similarity(example_store.get("r1"), example_store.get("r2"))
        assert value == pytest.approx(4 / 7)

    def test_attribute_similarity_edit(self):
        a = Record("r1", {"name": "oceana"})
        b = Record("r2", {"name": "oceanna"})
        value = AttributeSimilarity("name", "edit").similarity(a, b)
        assert value == pytest.approx(1 - 1 / 7)

    def test_attribute_similarity_unknown_function(self):
        with pytest.raises(ValueError):
            AttributeSimilarity("name", "nope")


class TestFeatureExtractor:
    def test_for_attributes_builds_cross_product(self):
        extractor = FeatureExtractor.for_attributes(["name", "city"])
        assert extractor.dimension == 4
        assert "edit(name)" in [spec.name for spec in extractor.specs]

    def test_extract_shape_and_range(self, example_store):
        extractor = FeatureExtractor.for_attributes(["product_name"])
        vector = extractor.extract(example_store.get("r1"), example_store.get("r2"))
        assert vector.shape == (2,)
        assert np.all((vector >= 0.0) & (vector <= 1.0))

    def test_extract_pairs_matrix(self, example_store):
        extractor = FeatureExtractor.for_attributes(["product_name"])
        matrix = extractor.extract_pairs(example_store, [("r1", "r2"), ("r1", "r3")])
        assert matrix.shape == (2, extractor.dimension)

    def test_extract_pairs_empty(self, example_store):
        extractor = FeatureExtractor.for_attributes(["product_name"])
        assert extractor.extract_pairs(example_store, []).shape == (0, extractor.dimension)

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            FeatureExtractor([])

    def test_feature_spec_name(self):
        assert FeatureSpec("name", "edit").name == "edit(name)"
