"""When a streaming session re-aggregates: ledger votes → posterior cache."""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable, List, Set, Tuple

from repro.aggregation.majority import Vote
from repro.core.config import WorkflowConfig
from repro.core.workflow import build_aggregator
from repro.storage.base import PairLedger

PairKey = Tuple[str, str]


@dataclass
class AggregationSchedule:
    """Which ledger votes are re-aggregated when: votes → posterior cache.

    The scope is the ``WorkflowConfig`` field ``streaming_aggregation_scope``.
    Each call names the pairs ``fresh`` whose votes the current event folded
    in; every such pair is re-aggregated within that event, so a voted pair
    no event is folding votes for holds the posterior of its votes.
    Votes always reach the aggregator sorted by pair key with per-pair
    oracle order inside — the exact sequence a one-shot per-pair publish
    emits, which keeps Dawid-Skene EM bit-identical between streaming and
    batch runs.
    """

    config: WorkflowConfig
    ledger: PairLedger

    def aggregate(
        self, fresh: AbstractSet[PairKey], region: Callable[[], Set[PairKey]]
    ) -> None:
        """Fold an event's fresh votes into the posterior cache.

        ``"global"`` scope re-runs every vote.  Component scope re-runs the
        voted pairs of the event's region — ``region()`` names its pairs:
        every pair of the components the event dirtied or completed a pair
        in — and carries every other posterior over untouched.  Under a
        ``pair_independent`` aggregator (majority) a voted pair with no
        fresh votes already holds the posterior a re-run would give it, so
        only the ``fresh`` pairs are re-run — and only they reach
        ``set_posterior``, the ranked index and a durable store's writes —
        and the region is never enumerated.
        """
        ledger = self.ledger
        aggregator = build_aggregator(self.config)
        if self.config.streaming_aggregation_scope == "global":
            votes = self._votes_of(sorted(ledger.votes))
            ledger.replace_posteriors(dict(aggregator.aggregate(votes)) if votes else {})
            return
        keys = fresh if aggregator.pair_independent else ledger.votes.keys() & region()
        if keys:
            self._reaggregate(aggregator, keys)

    def flush(
        self, fresh: AbstractSet[PairKey], expand: Callable[[Iterable[PairKey]], Set[PairKey]]
    ) -> None:
        """Re-aggregate the pairs the settled crowd completed (``fresh``).

        An aggregator that is not pair-independent re-runs those pairs'
        whole components (``expand`` names their pairs), the unit
        :meth:`aggregate` uses.
        """
        if fresh:
            aggregator = build_aggregator(self.config)
            if not aggregator.pair_independent:
                fresh = self.ledger.votes.keys() & expand(fresh)
            self._reaggregate(aggregator, fresh)

    def _reaggregate(self, aggregator, keys: Iterable[PairKey]) -> None:
        """Run ``aggregator`` over the ledger votes of ``keys``; cache the posteriors."""
        keys = sorted(keys)
        for key, posterior in aggregator.aggregate(self._votes_of(keys)).items():
            self.ledger.set_posterior(key, posterior)

    def _votes_of(self, keys: List[PairKey]) -> List[Vote]:
        votes = self.ledger.votes
        return [vote for key in keys for vote in votes.get(key, ())]
