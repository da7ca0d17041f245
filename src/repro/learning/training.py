"""Training-set construction for the learning-based baseline.

Section 7.3: the SVM classifier is trained "on 500 pairs that were randomly
selected from the pairs whose Jaccard similarities were above 0.1", labelled
with the ground truth, and the sampling is repeated several times with the
average performance reported.  These helpers implement that protocol.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

import numpy as np

from repro.records.pairs import PairSet, canonical_pair
from repro.records.record import RecordStore
from repro.similarity.feature_vectors import FeatureExtractor


@dataclass
class TrainingSet:
    """A labelled sample of candidate pairs ready for classifier training."""

    pair_keys: List[Tuple[str, str]]
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if len(self.pair_keys) != self.features.shape[0] or len(self.pair_keys) != len(self.labels):
            raise ValueError("pair_keys, features and labels must have matching lengths")

    @property
    def size(self) -> int:
        """Number of labelled pairs."""
        return len(self.pair_keys)

    @property
    def positive_count(self) -> int:
        """Number of matching (positive) pairs in the sample."""
        return int(np.sum(self.labels))

    def has_both_classes(self) -> bool:
        """True if the sample contains at least one match and one non-match."""
        return 0 < self.positive_count < self.size


def sample_training_pairs(
    candidates: PairSet,
    ground_truth: FrozenSet[Tuple[str, str]],
    sample_size: int,
    seed: int = 0,
) -> List[Tuple[Tuple[str, str], bool]]:
    """Randomly sample candidate pairs and label them with the ground truth.

    A sample is rejected and re-drawn (with a shifted seed) until it
    contains at least one positive and one negative pair, mirroring the
    fact that an SVM cannot be trained on a single class.
    """
    keys = list(candidates.keys())
    if not keys:
        return []
    sample_size = min(sample_size, len(keys))
    truth = {canonical_pair(a, b) for a, b in ground_truth}
    for attempt in range(50):
        rng = random.Random(seed + attempt)
        sampled = rng.sample(keys, sample_size)
        labelled = [(key, key in truth) for key in sampled]
        positives = sum(1 for _, label in labelled if label)
        if 0 < positives < len(labelled):
            return labelled
    # Could not find both classes by sampling (e.g. no positives exist among
    # the candidates); return the last sample rather than looping forever.
    return labelled


def build_training_set(
    store: RecordStore,
    candidates: PairSet,
    ground_truth: FrozenSet[Tuple[str, str]],
    extractor: FeatureExtractor,
    sample_size: int = 500,
    seed: int = 0,
) -> TrainingSet:
    """Sample, label and featurise a training set in one step.

    The minority class is oversampled (by repeating rows) up to a quarter
    of the training set.  Candidate sets for entity
    resolution are extremely imbalanced (a 500-pair random sample typically
    contains only a handful of true matches), and a stochastic-gradient SVM
    trained on the raw sample would all but ignore the positive class; the
    oversampling keeps the paper's sampling protocol while making the
    classifier trainable.
    """
    labelled = sample_training_pairs(candidates, ground_truth, sample_size, seed=seed)
    minority_fraction = 0.25
    if labelled:
        positives = [item for item in labelled if item[1]]
        negatives = [item for item in labelled if not item[1]]
        minority, majority = (
            (positives, negatives) if len(positives) <= len(negatives) else (negatives, positives)
        )
        if minority and len(minority) < minority_fraction * len(labelled):
            target = int(minority_fraction * len(majority) / (1 - minority_fraction))
            repeats = max(1, target // len(minority))
            labelled = majority + minority * repeats
            rng = random.Random(seed)
            rng.shuffle(labelled)
    pair_keys = [key for key, _ in labelled]
    labels = np.array([1 if label else 0 for _, label in labelled], dtype=int)
    features = extractor.extract_pairs(store, pair_keys)
    return TrainingSet(pair_keys=pair_keys, features=features, labels=labels)
