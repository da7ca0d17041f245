"""Naive all-pairs similarity computation.

This is the reference (exact) implementation of the machine pass: compute
the similarity of every unordered pair of records and keep those at or above
a minimum likelihood.  Each record is prepared once (for the paper's
Jaccard, tokenised into its token set), so a store of n records costs n
preparations plus one comparison per candidate pair, n(n-1)/2 of them for a
self-join.  It is the oracle (``join_backend="naive"``): the join
kernel in :mod:`repro.simjoin.vectorized` must produce the same result set
for the same threshold, and the test suite checks that equivalence.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.records.pairs import PairSet, RecordPair
from repro.records.record import RecordStore, pair_indices
from repro.similarity.record_similarity import JaccardRecordSimilarity, RecordSimilarity


def all_pairs_similarity(
    store: RecordStore,
    similarity: Optional[RecordSimilarity] = None,
    min_likelihood: float = 0.0,
    cross_sources: Optional[Tuple[str, str]] = None,
) -> PairSet:
    """Compute similarities for all pairs of records.

    Parameters
    ----------
    store:
        The table of records to resolve.
    similarity:
        Record similarity used as the likelihood; defaults to the paper's
        Jaccard-over-all-attributes simjoin.
    min_likelihood:
        Pairs strictly below this likelihood are not materialised.  Using
        ``0.0`` keeps every pair (matching Table 2's threshold-0 row).
    cross_sources:
        If given as ``(source_a, source_b)``, only pairs with one record from
        each source are considered (the Product dataset is a two-source
        record-linkage task with 1081 x 1092 candidate pairs).  The same
        source twice is the self-join over that source.
    """
    similarity = similarity or JaccardRecordSimilarity()
    records = list(store)
    prepared = [similarity.prepare(record) for record in records]
    result = PairSet()
    for i, j in pair_indices(records, cross_sources):
        value = similarity.compare(prepared[i], prepared[j])
        if value >= min_likelihood:
            result.add(RecordPair(records[i].record_id, records[j].record_id, likelihood=value))
    return result
