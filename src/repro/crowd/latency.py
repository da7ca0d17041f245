"""Latency model for simulated crowd runs (Figures 13 and 14).

Two quantities are modelled:

* **Per-assignment completion time** — dominated by the number of pairwise
  comparisons a worker must perform.  Pair-based HITs require one careful
  side-by-side reading per batched pair; the cluster interface (with its
  colour labels, sorting and drag-and-drop) makes each comparison much
  cheaper but adds a small orientation overhead.  This reproduces Figure 13:
  a C10 assignment takes slightly less time than a P16 assignment on data
  with few duplicates, and far less on duplicate-heavy data.

* **Total completion time of a batch** — determined by how many workers the
  batch attracts.  The paper observed that pair-based HITs attracted more
  workers (familiar interface), while very large pair HITs (P28) attracted
  fewer because the per-HIT effort grew at constant pay.  The model captures
  this with an *appeal* factor: cluster batches get a fixed unfamiliarity
  discount, pair batches are discounted proportionally to how much they
  exceed a reference batching size, and qualification tests shrink the
  eligible worker pool.  This reproduces the Figure 14 crossover: P16 beats
  C10 on Product, while C10 beats P28 on Product+Dup.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import median
from typing import Dict, Mapping, Optional, Tuple


@dataclass
class LatencyEstimate:
    """Latency figures of one simulated crowd run."""

    median_assignment_seconds: float
    total_minutes: float
    assignment_count: int


#: Seconds to open a pair-based HIT, read the instructions and submit.
PAIR_OVERHEAD = 18.0
#: The same for a cluster-based HIT.
CLUSTER_OVERHEAD = 25.0
#: Seconds of one careful side-by-side comparison of a batched pair.
PAIR_SECONDS_PER_COMPARISON = 5.5
#: Seconds of one scan-comparison in the cluster interface.
CLUSTER_SECONDS_PER_COMPARISON = 1.6
#: Workers that could work on a batch.
POOL_SIZE = 24
#: Fraction of the pool willing to try the unfamiliar cluster interface.
CLUSTER_APPEAL = 0.45
#: Pairs per HIT beyond which pair HITs start losing appeal (the P16 vs
#: P28 effect).
PAIR_REFERENCE_BATCH = 16
#: Fraction of otherwise-willing workers that bother taking the
#: qualification test.
QUALIFICATION_PARTICIPATION = 0.40
#: Extra seconds per assignment when workers passed a qualification test.
QUALIFICATION_EXTRA_SECONDS = 6.0
#: Minutes before the first workers arrive.
RECRUITMENT_MINUTES = 12.0


@dataclass
class LatencyModel:
    """The latency model of pair-based and cluster-based HITs, calibrated
    by the constants above (seconds unless noted)."""

    #: Memo for :meth:`effective_workers`, keyed on its arguments.
    _effective_workers_cache: Dict[Tuple, float] = field(
        default_factory=dict, repr=False, compare=False
    )

    # ------------------------------------------------------ per assignment
    def pair_assignment_seconds(self, pair_count: int, qualified: bool = False) -> float:
        """Completion time of one pair-based assignment with ``pair_count`` pairs."""
        if pair_count < 0:
            raise ValueError("pair_count must be non-negative")
        seconds = PAIR_OVERHEAD + PAIR_SECONDS_PER_COMPARISON * pair_count
        if qualified:
            seconds += QUALIFICATION_EXTRA_SECONDS
        return seconds

    def cluster_assignment_seconds(self, comparisons: int, qualified: bool = False) -> float:
        """Completion time of one cluster-based assignment with the given comparisons."""
        if comparisons < 0:
            raise ValueError("comparisons must be non-negative")
        seconds = CLUSTER_OVERHEAD + CLUSTER_SECONDS_PER_COMPARISON * comparisons
        if qualified:
            seconds += QUALIFICATION_EXTRA_SECONDS
        return seconds

    # ------------------------------------------------------------- appeal
    def batch_appeal(self, hit_type: str, pairs_per_hit: Optional[int] = None) -> float:
        """Fraction of the pool attracted by a batch of the given HIT type."""
        if hit_type == "cluster":
            return CLUSTER_APPEAL
        if hit_type == "pair":
            if pairs_per_hit is None or pairs_per_hit <= 0:
                return 1.0
            return min(1.0, PAIR_REFERENCE_BATCH / pairs_per_hit)
        raise ValueError("hit_type must be 'pair' or 'cluster'")

    def effective_workers(
        self, hit_type: str, pairs_per_hit: Optional[int] = None, qualification: bool = False
    ) -> float:
        """Number of workers effectively working on the batch in parallel.

        Memoized per distinct input: the streaming resolver calls this on
        every publish with an unchanged configuration, so the appeal
        arithmetic runs once, not per batch.
        """
        key = (hit_type, pairs_per_hit, qualification)
        cached = self._effective_workers_cache.get(key)
        if cached is not None:
            return cached
        workers = POOL_SIZE * self.batch_appeal(hit_type, pairs_per_hit)
        if qualification:
            workers *= QUALIFICATION_PARTICIPATION
        workers = max(1.0, workers)
        self._effective_workers_cache[key] = workers
        return workers

    # --------------------------------------------------------------- totals
    def estimate(
        self,
        assignment_seconds: Mapping[float, int],
        hit_type: str,
        pairs_per_hit: Optional[int] = None,
        qualification: bool = False,
    ) -> LatencyEstimate:
        """Aggregate per-assignment times into batch-level latency figures.

        ``assignment_seconds`` counts the assignments of each duration
        (``{seconds: count}``); the figures depend only on that multiset.
        The median is exact and the sum correctly rounded, so neither
        depends on the order the assignments came in.
        """
        count = sum(assignment_seconds.values())
        if not count:
            return LatencyEstimate(0.0, 0.0, 0)
        workers = self.effective_workers(hit_type, pairs_per_hit, qualification)
        total_work_seconds = total_seconds(assignment_seconds)
        total_minutes = RECRUITMENT_MINUTES + (total_work_seconds / workers) / 60.0
        if qualification:
            # Qualified crowds take longer to assemble.
            total_minutes += RECRUITMENT_MINUTES
        return LatencyEstimate(
            median_assignment_seconds=float(median(Counter(assignment_seconds).elements())),
            total_minutes=total_minutes,
            assignment_count=count,
        )


def total_seconds(assignment_seconds: Mapping[float, int]) -> float:
    """The sum of ``{seconds: count}`` durations, correctly rounded."""
    return float(sum(Fraction(seconds) * count for seconds, count in assignment_seconds.items()))
