"""Result objects returned by hybrid-workflow and streaming runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.crowd.latency import LatencyEstimate

PairKey = Tuple[str, str]


@dataclass
class StreamingDelta:
    """What one streaming batch changed relative to the previous snapshot.

    Attached to the :class:`ResolutionResult` snapshots produced by
    :class:`repro.streaming.StreamingResolver`; ``None`` on batch-mode
    results.  All counts describe the most recent ``add_batch`` call.

    Attributes
    ----------
    batch_index:
        1-based index of the arrival batch that produced this snapshot.
    new_records / new_candidate_pairs:
        Records added by the batch and candidate pairs the incremental join
        discovered for them (new-vs-old plus new-vs-new).
    dirty_components / clean_components:
        Components whose membership or edges changed this batch (their HITs
        were regenerated) vs components left untouched (their votes and
        posteriors were carried over).
    dirty_pairs:
        Candidate pairs living in dirty components.
    regenerated_hits:
        HITs generated for the dirty components this batch.
    crowdsourced_pairs:
        Pairs for which fresh votes were collected this batch (only
        never-voted pairs: a pair is crowdsourced once).
    reused_vote_pairs:
        Previously voted pairs whose existing votes were kept.
    preserved_posterior_pairs:
        Pairs in clean components whose cached posterior was reused without
        re-running the aggregator (component aggregation scope only).
    retracted_records:
        Records removed from the session by ``retract``/``update`` this
        event (0 for plain arrivals).
    invalidated_pairs:
        Candidate pairs dropped because one of their records was retracted
        — the provenance-reachable region whose votes, posteriors and
        coverage were discarded.
    """

    batch_index: int = 0
    new_records: int = 0
    new_candidate_pairs: int = 0
    dirty_components: int = 0
    clean_components: int = 0
    dirty_pairs: int = 0
    regenerated_hits: int = 0
    crowdsourced_pairs: int = 0
    reused_vote_pairs: int = 0
    preserved_posterior_pairs: int = 0
    retracted_records: int = 0
    invalidated_pairs: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view used by the CLI and benchmark reports."""
        return {
            "batch_index": self.batch_index,
            "new_records": self.new_records,
            "new_candidate_pairs": self.new_candidate_pairs,
            "dirty_components": self.dirty_components,
            "clean_components": self.clean_components,
            "dirty_pairs": self.dirty_pairs,
            "regenerated_hits": self.regenerated_hits,
            "crowdsourced_pairs": self.crowdsourced_pairs,
            "reused_vote_pairs": self.reused_vote_pairs,
            "preserved_posterior_pairs": self.preserved_posterior_pairs,
            "retracted_records": self.retracted_records,
            "invalidated_pairs": self.invalidated_pairs,
        }


@dataclass
class ResolutionResult:
    """Everything a hybrid-workflow run produced.

    Attributes
    ----------
    ranked_pairs:
        Candidate pairs ordered from most to least likely match (crowd
        posterior first, machine likelihood as tie-breaker).  This is the
        ranked list the precision-recall evaluation consumes.
    matches:
        Pairs whose aggregated posterior exceeds the decision threshold —
        the workflow's final answer (Figure 2(c)).
    posteriors:
        Aggregated per-pair match probability.
    likelihoods:
        Machine likelihood of every candidate pair sent to the crowd.
    candidate_count:
        Number of pairs that survived machine pruning.
    hit_count / assignment_count:
        Crowd workload.
    cost:
        Dollar cost under the pricing model.
    latency:
        Latency estimate of the crowd run (None for machine-only runs).
    recall_ceiling:
        Fraction of ground-truth matches that survived pruning — the best
        recall the crowd phase can possibly achieve (needs ground truth;
        None if unknown).
    delta:
        For streaming snapshots, what the latest batch changed
        (:class:`StreamingDelta`); ``None`` for batch-mode runs.
    changed:
        For streaming snapshots, the pairs whose likelihood or posterior was
        added, changed or dropped since the previous snapshot — after an
        event, what the event touched.  ``None`` when that is not known
        (batch-mode runs; a session right after a restore or a global-scope
        re-aggregation, where it may be any of them).  Not part of equality.
    """

    ranked_pairs: List[PairKey] = field(default_factory=list)
    matches: List[PairKey] = field(default_factory=list)
    posteriors: Dict[PairKey, float] = field(default_factory=dict)
    likelihoods: Dict[PairKey, float] = field(default_factory=dict)
    candidate_count: int = 0
    hit_count: int = 0
    assignment_count: int = 0
    cost: float = 0.0
    latency: Optional[LatencyEstimate] = None
    recall_ceiling: Optional[float] = None
    generator_name: str = ""
    delta: Optional[StreamingDelta] = None
    changed: Optional[Set[PairKey]] = field(default=None, compare=False)

    def summary(self) -> Dict[str, object]:
        """Compact dictionary summary used by reports and examples."""
        return {
            "candidates": self.candidate_count,
            "hits": self.hit_count,
            "assignments": self.assignment_count,
            "cost_dollars": round(self.cost, 2),
            "matches": len(self.matches),
            "total_minutes": round(self.latency.total_minutes, 1) if self.latency else None,
            "recall_ceiling": self.recall_ceiling,
            "generator": self.generator_name,
        }
