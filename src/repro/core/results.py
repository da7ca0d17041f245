"""Result objects returned by hybrid-workflow and streaming runs."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Set, Tuple

from repro.crowd.latency import LatencyEstimate

PairKey = Tuple[str, str]


@dataclass
class StreamingDelta:
    """What one streaming event changed: what ``add_batch``, ``retract`` and
    ``update`` of :class:`repro.streaming.StreamingResolver` return.

    Attributes
    ----------
    batch_index:
        1-based index of the event (arrivals, retractions and updates).
    new_records / new_candidate_pairs:
        Records added by the batch and candidate pairs the incremental join
        discovered for them (new-vs-old plus new-vs-new).
    dirty_components / clean_components:
        Components whose membership or edges changed this event vs
        components left untouched (their votes and posteriors were carried
        over).
    dirty_pairs:
        Candidate pairs living in dirty components.
    regenerated_hits:
        HITs published this event.
    crowdsourced_pairs:
        Pairs for which fresh votes were collected this event (only
        never-voted pairs: a pair is crowdsourced once).
    reused_vote_pairs:
        Pairs of the dirty components that already had votes, which they
        kept.
    preserved_posterior_pairs:
        Posteriors outside the event's region — the dirty components and
        those late votes completed a pair in — carried over without
        re-running the aggregator (component aggregation scope only).
    retracted_records:
        Records removed from the session by ``retract``/``update`` this
        event (0 for plain arrivals).
    invalidated_pairs:
        Candidate pairs dropped because one of their records was retracted
        — the provenance-reachable region whose votes and posteriors were
        discarded.
    changed:
        The pairs whose likelihood or posterior the event added, changed or
        dropped — what the session's ranking re-placed for it.  ``None``
        when that is not known (the first event after a restore, or a
        global-scope re-aggregation, where it may be any pair).  Not part
        of :meth:`as_dict` or of equality.

    The five region counters (``dirty_components``, ``clean_components``,
    ``dirty_pairs``, ``reused_vote_pairs``, ``preserved_posterior_pairs``)
    describe the components an event touched; they are read from
    per-component tallies, not by walking those components.  They are not
    the event's work: an event asks the crowd about, and under majority
    re-aggregates, only its new and still-unvoted pairs (its shed backlog
    and late completions included) — see :mod:`repro.streaming.session`.
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
    changed: Optional[Set[PairKey]] = field(default=None, compare=False)

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict, in field order (the wire's ``delta``)."""
        return {item.name: getattr(self, item.name) for item in fields(self)
                if item.name != "changed"}


@dataclass
class ResolutionResult:
    """A whole resolution: a batch run's, or a streaming session's from its
    ``snapshot()`` or ``flush()`` (its events answer with a :class:`StreamingDelta`).

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
