"""When a streaming session re-aggregates: ledger votes → posterior cache."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Set, Tuple

from repro.aggregation.majority import Vote
from repro.core.config import WorkflowConfig
from repro.core.results import StreamingDelta
from repro.core.workflow import build_aggregator
from repro.graph.union_find import IncrementalUnionFind
from repro.storage.base import PairLedger

PairKey = Tuple[str, str]


@dataclass
class AggregationSchedule:
    """Which ledger votes are re-aggregated when: votes → posterior cache.

    Scope, bounded staleness and the flush are the ``WorkflowConfig`` fields
    ``streaming_aggregation_scope`` and ``staleness_epsilon``.  Votes always
    reach the aggregator sorted by pair key with per-pair oracle order
    inside — the exact sequence a one-shot per-pair publish emits, which
    keeps Dawid-Skene EM bit-identical between streaming and batch runs.
    """

    config: WorkflowConfig
    ledger: PairLedger
    components: IncrementalUnionFind

    def aggregate(
        self, dirty_pairs: Set[PairKey], delta: StreamingDelta, force: bool = False
    ) -> None:
        """Fold fresh votes into the posterior cache.

        ``force`` bypasses the bounded-staleness filter — used by
        retraction, where the dirty region's cached posteriors are invalid
        rather than merely stale.

        Under a ``pair_independent`` aggregator (majority) a voted pair
        with no pending votes already holds the posterior a re-run would
        give it, so only the dirty pairs that gained votes are re-run — and
        only they reach ``set_posterior``, the ranked index and a
        persistent store's mirror.
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
        if not force:
            voted_dirty = self._drop_stale_components(voted_dirty, delta)
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

    def _drop_stale_components(
        self, voted_dirty: Set[PairKey], delta: StreamingDelta
    ) -> Set[PairKey]:
        """The ``staleness_epsilon`` filter: drop the dirty components whose
        ledger gained fewer than epsilon votes since their last aggregation
        (they keep their cached posteriors; 0 disables the filter)."""
        epsilon = self.config.staleness_epsilon
        if epsilon <= 0 or not voted_dirty:
            return voted_dirty
        find, pending = self.components.find, self.ledger.pending_votes
        by_root: Dict[str, int] = {}
        for key in voted_dirty:
            root = find(key[0])
            by_root[root] = by_root.get(root, 0) + pending.get(key, 0)
        stale_roots = {root for root, gained in by_root.items() if gained < epsilon}
        delta.stale_skipped_components = len(stale_roots)
        if not stale_roots:
            return voted_dirty
        return {key for key in voted_dirty if find(key[0]) not in stale_roots}
