"""Unit tests for the HIT data structures and pair-based generation."""

import math

import pytest

from repro.hit.base import ClusterBasedHIT, HITBatch, PairBasedHIT, validate_cluster_cover
from repro.hit.pair_generation import PairHITGenerator
from repro.records.pairs import PairSet, RecordPair


class TestPairBasedHIT:
    def test_pairs_canonicalised(self):
        hit = PairBasedHIT("h1", (("r2", "r1"), ("r3", "r4")))
        assert hit.pairs == (("r1", "r2"), ("r3", "r4"))
        assert hit.size == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PairBasedHIT("h1", ())

    def test_checkable_pairs(self):
        hit = PairBasedHIT("h1", (("a", "b"),))
        assert hit.checkable_pairs() == {("a", "b")}


class TestClusterBasedHIT:
    def test_basic_properties(self):
        hit = ClusterBasedHIT("h1", ("r1", "r2", "r3"))
        assert hit.size == 3

    def test_duplicate_records_rejected(self):
        with pytest.raises(ValueError):
            ClusterBasedHIT("h1", ("r1", "r1"))

    def test_checkable_pairs_all_internal(self):
        hit = ClusterBasedHIT("h1", ("a", "b", "c"))
        assert hit.checkable_pairs() == {("a", "b"), ("a", "c"), ("b", "c")}


class TestHITBatch:
    def test_cover_bookkeeping(self):
        candidates = {("a", "b"), ("b", "c"), ("d", "e")}
        batch = HITBatch(
            hit_type="cluster",
            hits=[ClusterBasedHIT("h1", ("a", "b", "c"))],
            candidate_pairs=candidates,
            cluster_size=3,
        )
        assert batch.covered_pairs() == {("a", "b"), ("b", "c")}
        assert batch.uncovered_pairs() == {("d", "e")}
        assert not batch.is_valid_cover()
        assert batch.max_hit_size() == 3

    def test_invalid_hit_type(self):
        with pytest.raises(ValueError):
            HITBatch(hit_type="other")


class TestValidateClusterCover:
    def test_accepts_valid_cover(self, example_pairs):
        hits = [
            ClusterBasedHIT("h1", ("r1", "r2", "r3", "r7")),
            ClusterBasedHIT("h2", ("r3", "r4", "r5", "r6")),
            ClusterBasedHIT("h3", ("r4", "r7", "r8", "r9")),
        ]
        validate_cluster_cover(hits, example_pairs, cluster_size=4)

    def test_rejects_oversized_hit(self, example_pairs):
        hits = [ClusterBasedHIT("h1", tuple(f"r{i}" for i in range(1, 10)))]
        with pytest.raises(ValueError, match="exceeding"):
            validate_cluster_cover(hits, example_pairs, cluster_size=4)

    def test_rejects_uncovered_pairs(self, example_pairs):
        hits = [ClusterBasedHIT("h1", ("r1", "r2", "r3", "r7"))]
        with pytest.raises(ValueError, match="not covered"):
            validate_cluster_cover(hits, example_pairs, cluster_size=4)


class TestPairHITGeneration:
    def test_hit_count_is_ceiling(self, example_pairs):
        generator = PairHITGenerator(pairs_per_hit=2)
        batch = generator.generate(example_pairs)
        assert batch.hit_count == math.ceil(len(example_pairs) / 2) == 5
        assert batch.is_valid_cover()

    def test_every_pair_appears_exactly_once(self, example_pairs):
        batch = PairHITGenerator(pairs_per_hit=3).generate(example_pairs)
        seen = [pair for hit in batch.hits for pair in hit.pairs]
        assert sorted(seen) == sorted(example_pairs.keys())

    def test_likelihood_ordering(self, simple_pairs):
        batch = PairHITGenerator(pairs_per_hit=2).generate(simple_pairs)
        first_hit = batch.hits[0]
        assert ("a", "b") in first_hit.pairs  # highest likelihood first

    def test_empty_pair_set(self):
        batch = PairHITGenerator(pairs_per_hit=4).generate(PairSet())
        assert batch.hit_count == 0
        assert batch.is_valid_cover()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PairHITGenerator(pairs_per_hit=0)
