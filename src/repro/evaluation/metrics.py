"""Precision / recall metrics over pair sets and ranked pair lists."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

from repro.records.pairs import canonical_pair

PairKey = Tuple[str, str]


def _canonical_set(pairs: Iterable[PairKey]) -> Set[PairKey]:
    return {canonical_pair(a, b) for a, b in pairs}


def precision_recall(
    predicted: Iterable[PairKey], ground_truth: Iterable[PairKey]
) -> Tuple[float, float]:
    """Precision and recall of a predicted match set against the truth.

    Precision is the fraction of predicted pairs that are true matches;
    recall is the fraction of true matches that were predicted.  An empty
    prediction has precision 1.0 by convention (nothing wrong was said).
    """
    predicted_set = _canonical_set(predicted)
    truth_set = _canonical_set(ground_truth)
    true_positives = len(predicted_set & truth_set)
    precision = true_positives / len(predicted_set) if predicted_set else 1.0
    recall = true_positives / len(truth_set) if truth_set else 1.0
    return precision, recall


def f1_score(predicted: Iterable[PairKey], ground_truth: Iterable[PairKey]) -> float:
    """Harmonic mean of precision and recall."""
    precision, recall = precision_recall(predicted, ground_truth)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def precision_recall_curve(
    ranked_pairs: Sequence[PairKey],
    ground_truth: Iterable[PairKey],
) -> List[Tuple[float, float]]:
    """Precision-recall curve obtained by cutting a ranked list at each prefix.

    Parameters
    ----------
    ranked_pairs:
        Pairs ordered from most to least likely match (the output of every
        ER technique in Section 7.3).
    ground_truth:
        The true matching pairs.

    Returns
    -------
    list of (recall, precision) tuples, in increasing recall order.
    """
    truth_set = _canonical_set(ground_truth)
    if not truth_set:
        return []
    curve: List[Tuple[float, float]] = []
    true_positives = 0
    for rank, pair in enumerate(ranked_pairs, start=1):
        if canonical_pair(*pair) in truth_set:
            true_positives += 1
        precision = true_positives / rank
        recall = true_positives / len(truth_set)
        curve.append((recall, precision))
    return curve


def average_precision(
    ranked_pairs: Sequence[PairKey], ground_truth: Iterable[PairKey]
) -> float:
    """Average precision (area under the PR curve, interpolated at matches)."""
    truth_set = _canonical_set(ground_truth)
    if not truth_set:
        return 0.0
    true_positives = 0
    precision_sum = 0.0
    for rank, pair in enumerate(ranked_pairs, start=1):
        if canonical_pair(*pair) in truth_set:
            true_positives += 1
            precision_sum += true_positives / rank
    if true_positives == 0:
        return 0.0
    return precision_sum / len(truth_set)
