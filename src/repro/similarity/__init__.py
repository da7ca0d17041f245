"""Similarity functions used by the machine-based ER techniques.

The paper's similarity-based technique ("simjoin") uses Jaccard similarity
over token sets; the learning-based baseline (SVM) uses edit distance and
cosine similarity computed per attribute.  This package implements those
plus the other standard set/string similarities the join kernel and the
ablation benchmarks accept.
"""

from repro.similarity.set_similarity import (
    jaccard_similarity,
    overlap_coefficient,
    dice_similarity,
    cosine_token_similarity,
)
from repro.similarity.edit_distance import (
    levenshtein_distance,
    levenshtein_similarity,
)
from repro.similarity.record_similarity import (
    RecordSimilarity,
    JaccardRecordSimilarity,
    AttributeSimilarity,
)
from repro.similarity.feature_vectors import FeatureExtractor, FeatureSpec

__all__ = [
    "jaccard_similarity",
    "overlap_coefficient",
    "dice_similarity",
    "cosine_token_similarity",
    "levenshtein_distance",
    "levenshtein_similarity",
    "RecordSimilarity",
    "JaccardRecordSimilarity",
    "AttributeSimilarity",
    "FeatureExtractor",
    "FeatureSpec",
]
