"""Posterior/likelihood ranking shared by batch and streaming resolution.

Both :class:`repro.core.workflow.HybridWorkflow` and
:class:`repro.streaming.StreamingResolver` end a run the same way: candidate
pairs are ranked by crowd posterior with the machine likelihood as the
tie-breaker, pairs the crowd never voted on fall back to their likelihood
(slotted below every crowd-confirmed match and above every crowd-rejected
pair), and the final match set is everything whose posterior clears
:data:`DECISION_THRESHOLD`.  Keeping the rule in one place guarantees the
streaming snapshot ranks exactly like a one-shot resolve given the same
posteriors and likelihoods.  :func:`rank_candidates` is that rule; :class:`RankedIndex`
keeps a session's candidates in the same order under point updates, so a
streaming snapshot does not re-sort what an event left alone.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Optional, Tuple

PairKey = Tuple[str, str]

#: Posterior above which a voted pair counts as a match.
DECISION_THRESHOLD = 0.5

#: From this many entries to drop and insert on, :meth:`RankedIndex.update`
#: rebuilds the list once instead of shifting its tail once per entry.  A
#: shift moves pointers; the rebuild copies them and counts references,
#: about 70 times the cost an entry (CPython 3.11 on a 2-vCPU Xeon), so the
#: rebuild wins past about 80 moves whatever the list's length.  Below a
#: few thousand entries the bisects dominate and neither wins by much.
SPLICE_MIN = 96


def rank_candidates(
    likelihoods: Dict[PairKey, float],
    posteriors: Dict[PairKey, float],
) -> Tuple[List[PairKey], List[PairKey]]:
    """Return ``(ranked_pairs, matches)`` for the given scores.

    ``ranked_pairs`` orders every candidate from most to least likely match:
    crowd-confirmed pairs (posterior above the threshold) first, then
    unvoted pairs by machine likelihood, then crowd-rejected pairs.
    ``matches`` is the subset of voted pairs whose posterior is strictly
    above the decision threshold, in ranked order.
    """

    def rank_key(key: PairKey) -> Tuple[int, float, float]:
        posterior = posteriors.get(key)
        if posterior is None:
            return (1, likelihoods[key], likelihoods[key])
        tier = 2 if posterior > DECISION_THRESHOLD else 0
        return (tier, posterior, likelihoods[key])

    # Pre-sorting by key makes equal-score ties break on ascending pair key
    # regardless of dict insertion order, so a streaming snapshot (arrival
    # order) and a one-shot resolve (likelihood order) rank identically.
    ranked = sorted(sorted(likelihoods), key=rank_key, reverse=True)
    matches = [
        key for key in ranked if posteriors.get(key, 0.0) > DECISION_THRESHOLD
    ]
    return ranked, matches


class RankedIndex:
    """The candidates kept in :func:`rank_candidates` order under point updates.

    One sorted list of ``(-tier, -score, -likelihood, pair_key)`` entries:
    ascending order on that tuple *is* the ranked order — descending tier,
    score and likelihood, ties on ascending pair key (``-0.0 == 0.0``, so a
    signed zero ties like :func:`rank_candidates`' stable sort does) — and
    the tier-2 prefix is the match list.  :meth:`update` re-places an
    event's pairs as one batch, so a streaming snapshot pays for the pairs
    an event touched instead of re-sorting the session.  :func:`rank_candidates`
    stays the definition of the order: :meth:`load` takes its output, and
    the property tests hold the two equal after every event.
    """

    def __init__(self) -> None:
        self._entries: List[tuple] = []
        #: Pair key -> its entry, so a changed pair's old slot is one bisect.
        self._entry_of: Dict[PairKey, tuple] = {}

    def _entry(self, key: PairKey, likelihood: float, posterior: Optional[float]) -> tuple:
        if posterior is None:
            return (-1, -likelihood, -likelihood, key)
        tier = 2 if posterior > DECISION_THRESHOLD else 0
        return (-tier, -posterior, -likelihood, key)

    def load(
        self,
        ranked: List[PairKey],
        likelihoods: Dict[PairKey, float],
        posteriors: Dict[PairKey, float],
    ) -> None:
        """Replace the contents with ``ranked``, an order :func:`rank_candidates` produced."""
        self._entries = [
            self._entry(key, likelihoods[key], posteriors.get(key)) for key in ranked
        ]
        self._entry_of = {entry[3]: entry for entry in self._entries}

    def update(
        self,
        keys: Iterable[PairKey],
        likelihoods: Dict[PairKey, float],
        posteriors: Dict[PairKey, float],
    ) -> None:
        """Re-place ``keys``: each where its scores now rank it, or nowhere
        once it is no longer a candidate (not in ``likelihoods``).

        An entry that did not move costs nothing.  A few moves are made one
        bisect-and-shift each; past :data:`SPLICE_MIN` of them the list is
        rebuilt once, around cut points found by bisect — each shift moves
        the list's tail, the rebuild copies the list once.
        """
        entry_of = self._entry_of
        dropped: List[tuple] = []
        added: List[tuple] = []
        for key in keys:
            old = entry_of.pop(key, None)
            new = None
            if key in likelihoods:
                new = entry_of[key] = self._entry(key, likelihoods[key], posteriors.get(key))
            if old != new:
                if old is not None:
                    dropped.append(old)
                if new is not None:
                    added.append(new)
        entries = self._entries
        if len(dropped) + len(added) < SPLICE_MIN:
            for entry in dropped:
                del entries[bisect_left(entries, entry)]
            for entry in added:
                insort(entries, entry)
            return
        # Each cut is (position in the old list, 1 to drop the entry there
        # or 0 to put ``entry`` before it, entry); positions ascend.
        cuts = sorted(
            [(bisect_left(entries, entry), 1, entry) for entry in dropped]
            + [(bisect_left(entries, entry), 0, entry) for entry in added]
        )
        spliced: List[tuple] = []
        start = 0
        for at, drop, entry in cuts:
            spliced += entries[start:at]
            if drop:
                start = at + 1
            else:
                start = at
                spliced.append(entry)
        spliced += entries[start:]
        self._entries = spliced

    def ranked(self) -> List[PairKey]:
        """Every candidate, most to least likely match."""
        return [entry[3] for entry in self._entries]

    def page(self, after: int, limit: int) -> List[PairKey]:
        """Ranks ``after`` to ``after + limit`` of :meth:`ranked`: one list slice."""
        return [entry[3] for entry in self._entries[after : after + limit]]

    def match_count(self) -> int:
        """How many crowd-confirmed pairs there are: the tier-2 prefix's length."""
        return bisect_left(self._entries, (-1,))

    def matches(self) -> List[PairKey]:
        """The crowd-confirmed pairs, in ranked order: the tier-2 prefix."""
        return [entry[3] for entry in self._entries[: self.match_count()]]
