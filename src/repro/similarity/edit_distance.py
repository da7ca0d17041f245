"""Character-level string similarity: Levenshtein.

Edit distance is one of the two similarity functions the paper's SVM
baseline computes per attribute (following Koepcke et al. [18]).  The
Levenshtein implementation uses the standard two-row dynamic program,
optionally with an early-exit band when only a similarity above a cutoff
matters.
"""

from __future__ import annotations


def levenshtein_distance(text_a: str, text_b: str) -> int:
    """Classic Levenshtein (insert/delete/substitute) distance.

    >>> levenshtein_distance("kitten", "sitting")
    3
    """
    if text_a == text_b:
        return 0
    if not text_a:
        return len(text_b)
    if not text_b:
        return len(text_a)
    # Ensure text_b is the shorter string so the row is small.
    if len(text_b) > len(text_a):
        text_a, text_b = text_b, text_a
    previous = list(range(len(text_b) + 1))
    current = [0] * (len(text_b) + 1)
    for i, char_a in enumerate(text_a, start=1):
        current[0] = i
        for j, char_b in enumerate(text_b, start=1):
            substitution_cost = 0 if char_a == char_b else 1
            current[j] = min(
                previous[j] + 1,  # deletion
                current[j - 1] + 1,  # insertion
                previous[j - 1] + substitution_cost,  # substitution
            )
        previous, current = current, previous
    return previous[len(text_b)]


def levenshtein_similarity(text_a: str, text_b: str) -> float:
    """Normalised edit similarity: 1 - distance / max(len_a, len_b).

    Two empty strings are perfectly similar (1.0).
    """
    if not text_a and not text_b:
        return 1.0
    longest = max(len(text_a), len(text_b))
    return 1.0 - levenshtein_distance(text_a, text_b) / longest
