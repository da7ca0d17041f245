"""Learning-based entity resolution: the paper's SVM baseline end to end.

The pipeline follows Section 7.3:

1. Compute the Jaccard candidates above a low threshold (0.1 in the paper).
2. Sample ``training_size`` candidate pairs, label them with the ground
   truth, and extract similarity feature vectors.
3. Train the classifier and score the remaining candidate pairs.
4. Return a ranked list of pairs (most likely matches first) used to plot
   precision-recall curves.

The sampling / training is repeated ``repetitions`` times with different
seeds and the per-pair scores are averaged, mirroring "the training pairs
were sampled 10 times, and we report the average performance here".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

import numpy as np

from repro.learning.svm import LinearSVM
from repro.learning.training import build_training_set
from repro.records.pairs import PairSet
from repro.records.record import RecordStore
from repro.similarity.feature_vectors import FeatureExtractor


@dataclass
class LearningBasedER:
    """SVM-based ER ranker over machine-generated candidate pairs.

    Parameters
    ----------
    extractor:
        Feature extractor (edit + cosine per attribute in the paper).
    training_size:
        Number of labelled training pairs per repetition (500 in the paper).
    repetitions:
        Number of independent training repetitions to average (10 in the
        paper; smaller values keep the benchmarks fast).
    seed:
        Base random seed; repetition ``r`` trains a :class:`LinearSVM`
        seeded ``seed + r``.
    """

    extractor: FeatureExtractor
    training_size: int = 500
    repetitions: int = 3
    seed: int = 0

    def rank_pairs(
        self,
        store: RecordStore,
        candidates: PairSet,
        ground_truth: FrozenSet[Tuple[str, str]],
    ) -> List[Tuple[Tuple[str, str], float]]:
        """Return candidate pairs ranked by averaged classifier score.

        The pairs used for training stay in the ranked output (the paper
        ranks "the remaining pairs"): keeping them simplifies recall
        accounting and changes results only marginally.
        """
        keys = list(candidates.keys())
        if not keys:
            return []
        features = self.extractor.extract_pairs(store, keys)
        total_scores = np.zeros(len(keys))
        successful_runs = 0

        for repetition in range(self.repetitions):
            training = build_training_set(
                store,
                candidates,
                ground_truth,
                self.extractor,
                sample_size=self.training_size,
                seed=self.seed + repetition,
            )
            if not training.has_both_classes():
                continue
            classifier = LinearSVM(seed=self.seed + repetition)
            classifier.fit(training.features, training.labels)
            total_scores += classifier.decision_function(features)
            successful_runs += 1

        if successful_runs == 0:
            # Fall back to ranking by the machine likelihood if training was
            # impossible (e.g. no positive pairs among the candidates).
            return [
                (pair.key, pair.likelihood or 0.0)
                for pair in candidates.sorted_by_likelihood()
            ]

        scores = total_scores / successful_runs
        ranked = sorted(zip(keys, scores), key=lambda item: item[1], reverse=True)
        return [(key, float(score)) for key, score in ranked]
