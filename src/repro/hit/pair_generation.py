"""Pair-based HIT generation (Section 3.1).

Generating pair-based HITs is straightforward: given a set of pairs ``P``
and a per-HIT capacity ``k`` pairs, produce ``ceil(|P| / k)`` HITs.  Pairs
are batched in descending likelihood order by default so that the most
promising verifications are published first (useful when a budget cuts the
run short), with an option to keep the original insertion order.

The ranking runs on the columnar substrate: the pair set materializes as a
key list plus a dense likelihood array (:meth:`~repro.records.pairs.PairSet.to_arrays`)
and one stable vectorized argsort
(:func:`~repro.simjoin.columnar.argsort_descending`) replaces the
per-object comparison sort — same order, array-speed, which matters when a
large dirty region is re-batched in one streaming event.
"""

from __future__ import annotations

from typing import List

from repro import obs
from repro.hit.base import HITBatch, PairBasedHIT
from repro.records.pairs import PairSet
from repro.simjoin.columnar import argsort_descending


class PairHITGenerator:
    """Chunk a pair set into pair-based HITs of at most ``pairs_per_hit`` pairs."""

    name = "pair-based"

    def __init__(self, pairs_per_hit: int) -> None:
        if pairs_per_hit < 1:
            raise ValueError("pairs_per_hit must be at least 1")
        self.pairs_per_hit = pairs_per_hit

    def generate(self, pairs: PairSet) -> HITBatch:
        """Generate the pair-based HIT batch for the given candidate pairs,
        most likely pairs first."""
        keys, likelihoods = pairs.to_arrays()
        # Stable descending argsort == the old per-object sort: missing
        # likelihoods were already densified to -1.0, and ties keep
        # insertion order either way.
        ordered = [keys[index] for index in argsort_descending(likelihoods)]
        hits: List[PairBasedHIT] = []
        for start in range(0, len(ordered), self.pairs_per_hit):
            chunk = ordered[start : start + self.pairs_per_hit]
            hits.append(
                PairBasedHIT(
                    hit_id=f"pair-hit-{len(hits) + 1}",
                    pairs=tuple(chunk),
                )
            )
        if obs.enabled():
            obs.inc("hit_pairs_packed_total", len(keys), generator=self.name,
                    help="Candidate pairs packed into generated HITs.")
            obs.inc("hits_generated_total", len(hits), generator=self.name,
                    help="HITs produced by the generators.")
        return HITBatch(
            hit_type="pair",
            hits=list(hits),
            candidate_pairs=set(keys),
            generator_name=self.name,
            cluster_size=self.pairs_per_hit,
        )
