"""Machine-only and human-only reference pipelines (Section 7.3).

* :class:`SimJoinRanker` — rank candidate pairs by the Jaccard likelihood
  alone ("simjoin" in Figure 12).
* :class:`SVMRanker` — the learning-based baseline: train a linear SVM on a
  labelled sample and rank the candidates by classifier score ("SVM" in
  Figure 12).
* :func:`human_only_hit_count` — the back-of-envelope cost of the
  human-only approaches of the introduction (all-pairs batched into HITs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.datasets.base import Dataset
from repro.learning.classifier_er import LearningBasedER
from repro.records.pairs import PairSet
from repro.similarity.feature_vectors import FeatureExtractor
from repro.simjoin.likelihood import SimJoinLikelihood

PairKey = Tuple[str, str]


@dataclass
class SimJoinRanker:
    """Rank candidate pairs by machine likelihood only."""

    min_likelihood: float = 0.1

    def rank(self, dataset: Dataset) -> List[PairKey]:
        """Return candidate pairs in decreasing likelihood order."""
        candidates = SimJoinLikelihood().estimate(
            dataset.store,
            min_likelihood=self.min_likelihood,
            cross_sources=dataset.cross_sources,
        )
        return [pair.key for pair in candidates.sorted_by_likelihood()]


@dataclass
class SVMRanker:
    """The learning-based baseline of Section 7.3.

    Feature vectors use edit distance and cosine similarity per attribute
    (all attributes for Restaurant-like data, the name attribute for
    Product-like data); training pairs are sampled from the candidates above
    ``min_likelihood`` and labelled with the ground truth.
    """

    min_likelihood: float = 0.1
    training_size: int = 500
    repetitions: int = 3
    attributes: Optional[Sequence[str]] = None
    seed: int = 0

    def rank(self, dataset: Dataset) -> List[PairKey]:
        """Return candidate pairs ranked by averaged SVM score."""
        estimator = SimJoinLikelihood()
        candidates: PairSet = estimator.estimate(
            dataset.store,
            min_likelihood=self.min_likelihood,
            cross_sources=dataset.cross_sources,
        )
        attributes = list(self.attributes) if self.attributes else dataset.store.attribute_names()
        extractor = FeatureExtractor.for_attributes(attributes)
        learner = LearningBasedER(
            extractor=extractor,
            training_size=self.training_size,
            repetitions=self.repetitions,
            seed=self.seed,
        )
        ranked = learner.rank_pairs(dataset.store, candidates, dataset.ground_truth)
        return [key for key, _score in ranked]


def human_only_hit_count(record_count: int, hit_size: int) -> int:
    """HIT count of the naive human-only approach (Section 1).

    Pair-based batching needs ``O(n^2 / k)`` HITs: the number the
    introduction uses to argue that a machine pruning pass is indispensable
    (10,000 records at k=20 already require 2,500,000 HITs).
    """
    if record_count < 2 or hit_size < 1:
        raise ValueError("record_count must be >= 2 and hit_size >= 1")
    return math.ceil(record_count * (record_count - 1) / 2 / hit_size)
