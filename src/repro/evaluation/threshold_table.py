"""Likelihood-threshold selection table (Table 2 of the paper).

For each likelihood threshold the table reports how many candidate pairs
survive the machine pruning step, how many of them are true matches and the
resulting recall ceiling of the hybrid workflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.datasets.base import Dataset
from repro.records.pairs import PairSet
from repro.simjoin.likelihood import SimJoinLikelihood


@dataclass(frozen=True)
class ThresholdRow:
    """One row of Table 2: a threshold and its pruning statistics."""

    threshold: float
    total_pairs: int
    matching_pairs: int
    recall: float

    def as_dict(self) -> dict:
        """Plain-dict view used by the benchmark reports."""
        return {
            "threshold": self.threshold,
            "total_pairs": self.total_pairs,
            "matching_pairs": self.matching_pairs,
            "recall": self.recall,
        }


def threshold_table(
    dataset: Dataset,
    thresholds: Sequence[float] = (0.5, 0.4, 0.3, 0.2, 0.1, 0.0),
) -> List[ThresholdRow]:
    """Compute the Table-2 rows for a dataset.

    The likelihoods are computed once at the smallest threshold and the
    rows for larger thresholds are derived by filtering, which keeps the
    computation to a single similarity-join pass.
    """
    ordered = sorted(thresholds, reverse=True)
    minimum = min(ordered)
    scored: PairSet = SimJoinLikelihood().estimate(
        dataset.store, min_likelihood=minimum, cross_sources=dataset.cross_sources
    )
    truth = dataset.ground_truth
    total_matches = len(truth)
    rows: List[ThresholdRow] = []
    for threshold in ordered:
        surviving = scored.filter_by_likelihood(threshold) if threshold > minimum else scored
        matching = len(surviving.intersection_keys(truth))
        recall = matching / total_matches if total_matches else 1.0
        if threshold <= 0.0:
            # Threshold 0 retains the full candidate space by definition,
            # even though pairs with zero similarity were never materialised.
            rows.append(
                ThresholdRow(
                    threshold=threshold,
                    total_pairs=dataset.total_pair_count(),
                    matching_pairs=total_matches,
                    recall=1.0,
                )
            )
        else:
            rows.append(
                ThresholdRow(
                    threshold=threshold,
                    total_pairs=len(surviving),
                    matching_pairs=matching,
                    recall=recall,
                )
            )
    return rows
