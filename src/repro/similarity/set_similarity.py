"""Set-based similarity functions (Jaccard, overlap, Dice, token cosine).

These operate on token sets (or token multisets for the cosine variant) and
return a value in [0, 1].  Jaccard over record token sets is the likelihood
function used by the paper's hybrid workflow (Section 7.1).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import AbstractSet, Iterable, Sequence


def _as_set(tokens: Iterable[str]) -> AbstractSet[str]:
    # Only read, never mutated: a set passes through without a copy.
    if isinstance(tokens, (set, frozenset)):
        return tokens
    return set(tokens)


def jaccard_similarity(tokens_a: Iterable[str], tokens_b: Iterable[str]) -> float:
    """Jaccard similarity |A ∩ B| / |A ∪ B| between two token sets.

    Both sets empty is defined as similarity 1.0 (two empty records are
    textually identical); exactly one empty set gives 0.0.

    >>> jaccard_similarity({"ipad", "16gb", "wifi", "white", "two"},
    ...                    {"ipad", "16gb", "wifi", "white", "2nd", "generation"})
    0.5714285714285714
    """
    set_a = _as_set(tokens_a)
    set_b = _as_set(tokens_b)
    if not set_a and not set_b:
        return 1.0
    union = len(set_a | set_b)
    if union == 0:
        return 1.0
    return len(set_a & set_b) / union


def overlap_coefficient(tokens_a: Iterable[str], tokens_b: Iterable[str]) -> float:
    """Overlap coefficient |A ∩ B| / min(|A|, |B|)."""
    set_a = _as_set(tokens_a)
    set_b = _as_set(tokens_b)
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / min(len(set_a), len(set_b))


def dice_similarity(tokens_a: Iterable[str], tokens_b: Iterable[str]) -> float:
    """Sørensen–Dice coefficient 2|A ∩ B| / (|A| + |B|)."""
    set_a = _as_set(tokens_a)
    set_b = _as_set(tokens_b)
    if not set_a and not set_b:
        return 1.0
    total = len(set_a) + len(set_b)
    if total == 0:
        return 1.0
    return 2.0 * len(set_a & set_b) / total


def cosine_token_similarity(tokens_a: Sequence[str], tokens_b: Sequence[str]) -> float:
    """Cosine similarity between token frequency vectors.

    This is the unweighted (term-frequency) cosine similarity used as one of
    the SVM features in the paper's learning-based baseline.
    """
    counts_a = Counter(tokens_a)
    counts_b = Counter(tokens_b)
    if not counts_a and not counts_b:
        return 1.0
    if not counts_a or not counts_b:
        return 0.0
    dot = sum(counts_a[token] * counts_b.get(token, 0) for token in counts_a)
    norm_a = math.sqrt(sum(count * count for count in counts_a.values()))
    norm_b = math.sqrt(sum(count * count for count in counts_b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def jaccard_bag_similarity(tokens_a: Sequence[str], tokens_b: Sequence[str]) -> float:
    """Multiset (bag) Jaccard similarity using minimum / maximum counts."""
    counts_a = Counter(tokens_a)
    counts_b = Counter(tokens_b)
    if not counts_a and not counts_b:
        return 1.0
    all_tokens = set(counts_a) | set(counts_b)
    intersection = sum(min(counts_a.get(t, 0), counts_b.get(t, 0)) for t in all_tokens)
    union = sum(max(counts_a.get(t, 0), counts_b.get(t, 0)) for t in all_tokens)
    if union == 0:
        return 1.0
    return intersection / union
