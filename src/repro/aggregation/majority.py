"""Majority-vote aggregation of per-pair crowd votes."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Tuple

from repro.records.pairs import canonical_pair

# A vote is (worker_id, pair_key, answer) with answer True = "same entity".
Vote = Tuple[str, Tuple[str, str], bool]


def majority_vote(votes: Iterable[Vote]) -> Dict[Tuple[str, str], float]:
    """Aggregate votes into the fraction of "yes" answers per pair.

    The returned value per pair is the proportion of workers who said the
    two records match; 0.5 ties are preserved as 0.5 so the caller can apply
    its own tie-breaking rule.
    """
    yes_counts: Dict[Tuple[str, str], int] = defaultdict(int)
    totals: Dict[Tuple[str, str], int] = defaultdict(int)
    for _worker_id, pair_key, answer in votes:
        key = canonical_pair(*pair_key)
        totals[key] += 1
        if answer:
            yes_counts[key] += 1
    return {key: yes_counts[key] / totals[key] for key in totals}


class MajorityAggregator:
    """Aggregator API wrapper around :func:`majority_vote`.

    ``aggregate`` returns a mapping from pair key to the probability that
    the pair is a match (here: the raw yes-fraction), matching the interface
    of :class:`repro.aggregation.dawid_skene.DawidSkeneAggregator`.
    """

    name = "majority"
    #: A pair's posterior is a function of that pair's votes alone — a fact
    #: about the algorithm, not an option.  It is what lets a streaming
    #: session re-aggregate only the pairs whose votes changed.
    pair_independent = True

    def aggregate(self, votes: Iterable[Vote]) -> Dict[Tuple[str, str], float]:
        """Return the per-pair match probability under majority voting."""
        return majority_vote(votes)

    def decisions(self, votes: Iterable[Vote]) -> Dict[Tuple[str, str], bool]:
        """Binary match decisions: a strict majority of yes votes, with ties
        resolved as "non-match" (the conservative choice)."""
        probabilities = self.aggregate(votes)
        return {key: probability > 0.5 for key, probability in probabilities.items()}
