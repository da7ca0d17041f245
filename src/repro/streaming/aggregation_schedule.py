"""When a streaming session re-aggregates: ledger votes → posterior cache."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Set, Tuple

from repro.aggregation.majority import Vote
from repro.core.config import WorkflowConfig
from repro.core.results import StreamingDelta
from repro.core.workflow import build_aggregator
from repro.storage.base import PairLedger

PairKey = Tuple[str, str]


@dataclass
class AggregationSchedule:
    """Which ledger votes are re-aggregated when: votes → posterior cache.

    The scope is the ``WorkflowConfig`` field ``streaming_aggregation_scope``.
    Votes always reach the aggregator sorted by pair key with per-pair
    oracle order inside — the exact sequence a one-shot per-pair publish
    emits, which keeps Dawid-Skene EM bit-identical between streaming and
    batch runs.
    """

    config: WorkflowConfig
    ledger: PairLedger

    def aggregate(self, dirty_pairs: Set[PairKey], delta: StreamingDelta) -> None:
        """Fold fresh votes into the posterior cache.

        Under a ``pair_independent`` aggregator (majority) a voted pair
        with no pending votes already holds the posterior a re-run would
        give it, so only the dirty pairs that gained votes are re-run — and
        only they reach ``set_posterior``, the ranked index and a
        persistent store's writes.
        """
        ledger = self.ledger
        aggregator = build_aggregator(self.config)
        if self.config.streaming_aggregation_scope == "global":
            votes = self._votes_of(sorted(ledger.votes))
            ledger.replace_posteriors(dict(aggregator.aggregate(votes)) if votes else {})
            ledger.clear_all_pending()
            return
        # Component scope: only the dirty region is re-aggregated; posteriors
        # of clean components are carried over untouched.
        settled = ledger.posteriors.keys() & dirty_pairs
        delta.preserved_posterior_pairs = len(ledger.posteriors) - len(settled)
        voted_dirty = ledger.votes.keys() & dirty_pairs
        if aggregator.pair_independent:
            voted_dirty = (voted_dirty & ledger.pending_votes.keys()) | (voted_dirty - settled)
        if voted_dirty:
            self._reaggregate(aggregator, voted_dirty)

    def flush(self, expand: Callable[[Iterable[PairKey]], Set[PairKey]]) -> None:
        """Re-aggregate every pair that holds votes its posterior has not seen.

        An aggregator that is not pair-independent re-runs those pairs'
        whole components (``expand`` names their pairs), the unit
        :meth:`aggregate` uses.
        """
        ledger = self.ledger
        pending = [
            key for key, gained in ledger.pending_votes.items()
            if gained > 0 and key in ledger.votes
        ]
        if pending:
            aggregator = build_aggregator(self.config)
            if not aggregator.pair_independent:
                pending = ledger.votes.keys() & expand(pending)
            self._reaggregate(aggregator, pending)

    def _reaggregate(self, aggregator, keys: Iterable[PairKey]) -> None:
        """Run ``aggregator`` over the ledger votes of ``keys``; cache the posteriors."""
        keys = sorted(keys)
        for key, posterior in aggregator.aggregate(self._votes_of(keys)).items():
            self.ledger.set_posterior(key, posterior)
        self.ledger.clear_pending(keys)

    def _votes_of(self, keys: List[PairKey]) -> List[Vote]:
        votes = self.ledger.votes
        return [vote for key in keys for vote in votes.get(key, ())]
