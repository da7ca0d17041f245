"""Tests for the from-scratch classifiers and the SVM-based ER baseline."""

import numpy as np
import pytest

from repro.learning.classifier_er import LearningBasedER
from repro.learning.svm import LinearSVM
from repro.learning.training import TrainingSet, build_training_set, sample_training_pairs
from repro.similarity.feature_vectors import FeatureExtractor
from repro.simjoin.likelihood import SimJoinLikelihood


def linearly_separable(n=200, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 2))
    labels = (features[:, 0] + features[:, 1] > 0).astype(int)
    return features, labels


class TestLinearSVM:
    def test_fits_linearly_separable_data(self):
        features, labels = linearly_separable()
        model = LinearSVM(seed=1).fit(features, labels)
        accuracy = float(np.mean((model.decision_function(features) > 0) == labels))
        assert accuracy > 0.95

    def test_decision_function_ranks_by_margin(self):
        features, labels = linearly_separable()
        model = LinearSVM(seed=1).fit(features, labels)
        scores = model.decision_function(np.array([[3.0, 3.0], [-3.0, -3.0]]))
        assert scores[0] > scores[1]

    def test_single_class_rejected(self):
        features = np.ones((10, 2))
        labels = np.ones(10)
        with pytest.raises(ValueError):
            LinearSVM().fit(features, labels)

    def test_unfitted_scoring_rejected(self):
        with pytest.raises(RuntimeError):
            LinearSVM().decision_function(np.zeros((1, 2)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearSVM().fit(np.zeros((3, 2)), np.zeros(4))


class TestTrainingSet:
    def test_sample_respects_size_and_labels(self, small_restaurant):
        candidates = SimJoinLikelihood().estimate(small_restaurant.store, min_likelihood=0.1)
        labelled = sample_training_pairs(candidates, small_restaurant.ground_truth, 50, seed=1)
        assert len(labelled) == 50
        assert any(label for _key, label in labelled)

    def test_sample_empty_candidates(self):
        from repro.records.pairs import PairSet

        assert sample_training_pairs(PairSet(), frozenset(), 10) == []

    def test_build_training_set_features_match_labels(self, small_restaurant):
        candidates = SimJoinLikelihood().estimate(small_restaurant.store, min_likelihood=0.1)
        extractor = FeatureExtractor.for_attributes(small_restaurant.store.attribute_names())
        training = build_training_set(
            small_restaurant.store,
            candidates,
            small_restaurant.ground_truth,
            extractor,
            sample_size=60,
            seed=2,
        )
        assert training.features.shape[0] == training.size
        assert training.has_both_classes()

    def test_balancing_increases_minority_share(self, small_restaurant):
        candidates = SimJoinLikelihood().estimate(small_restaurant.store, min_likelihood=0.1)
        extractor = FeatureExtractor.for_attributes(["name"])
        sample = sample_training_pairs(candidates, small_restaurant.ground_truth, 80, seed=3)
        balanced = build_training_set(
            small_restaurant.store, candidates, small_restaurant.ground_truth,
            extractor, sample_size=80, seed=3,
        )
        positives = sum(label for _key, label in sample)
        assert positives < 0.25 * len(sample)
        assert balanced.positive_count / balanced.size > positives / len(sample)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            TrainingSet(pair_keys=[("a", "b")], features=np.zeros((2, 1)), labels=np.zeros(2))


class TestLearningBasedER:
    def test_ranks_true_matches_high(self, small_restaurant):
        candidates = SimJoinLikelihood().estimate(small_restaurant.store, min_likelihood=0.1)
        extractor = FeatureExtractor.for_attributes(small_restaurant.store.attribute_names())
        learner = LearningBasedER(extractor=extractor, training_size=100, repetitions=2, seed=1)
        ranked = learner.rank_pairs(small_restaurant.store, candidates, small_restaurant.ground_truth)
        assert len(ranked) == len(candidates)
        top = {key for key, _score in ranked[:30]}
        hits = len(top & set(small_restaurant.ground_truth))
        assert hits >= 10  # most of the 20 duplicates rank near the top

    def test_scores_sorted_descending(self, small_restaurant):
        candidates = SimJoinLikelihood().estimate(small_restaurant.store, min_likelihood=0.2)
        extractor = FeatureExtractor.for_attributes(["name"])
        learner = LearningBasedER(extractor=extractor, training_size=60, repetitions=1, seed=0)
        ranked = learner.rank_pairs(small_restaurant.store, candidates, small_restaurant.ground_truth)
        scores = [score for _key, score in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_falls_back_to_likelihood_without_positives(self, small_restaurant):
        candidates = SimJoinLikelihood().estimate(small_restaurant.store, min_likelihood=0.2)
        extractor = FeatureExtractor.for_attributes(["name"])
        learner = LearningBasedER(extractor=extractor, training_size=50, repetitions=1)
        ranked = learner.rank_pairs(small_restaurant.store, candidates, frozenset())
        assert len(ranked) == len(candidates)

    def test_empty_candidates(self, small_restaurant):
        from repro.records.pairs import PairSet

        extractor = FeatureExtractor.for_attributes(["name"])
        learner = LearningBasedER(extractor=extractor)
        assert learner.rank_pairs(small_restaurant.store, PairSet(), frozenset()) == []
