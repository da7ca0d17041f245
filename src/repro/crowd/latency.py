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
    mean_assignment_seconds: float
    total_minutes: float
    effective_workers: float
    assignment_count: int

    def as_dict(self) -> dict:
        """Plain-dict view used by the benchmark reports."""
        return {
            "median_assignment_seconds": self.median_assignment_seconds,
            "mean_assignment_seconds": self.mean_assignment_seconds,
            "total_minutes": self.total_minutes,
            "effective_workers": self.effective_workers,
            "assignment_count": self.assignment_count,
        }


@dataclass
class LatencyModel:
    """Parameterised latency model for pair-based and cluster-based HITs.

    Parameters (all in seconds unless noted):

    * ``pair_overhead`` / ``cluster_overhead`` — fixed time to open a HIT,
      read instructions and submit.
    * ``pair_seconds_per_comparison`` — careful side-by-side comparison of
      one batched pair.
    * ``cluster_seconds_per_comparison`` — one scan-comparison in the
      cluster interface.
    * ``pool_size`` — number of workers that could work on the batch.
    * ``cluster_appeal`` — fraction of the pool willing to try the
      unfamiliar cluster interface.
    * ``pair_reference_batch`` — pair count per HIT beyond which pair HITs
      start losing appeal (the P16 vs P28 effect).
    * ``qualification_participation`` — fraction of otherwise-willing
      workers that bother taking the qualification test.
    * ``recruitment_minutes`` — fixed time before the first workers arrive.
    """

    pair_overhead: float = 18.0
    cluster_overhead: float = 25.0
    pair_seconds_per_comparison: float = 5.5
    cluster_seconds_per_comparison: float = 1.6
    pool_size: int = 24
    cluster_appeal: float = 0.45
    pair_reference_batch: int = 16
    qualification_participation: float = 0.40
    qualification_extra_seconds: float = 6.0
    recruitment_minutes: float = 12.0
    #: Memo for :meth:`effective_workers`, keyed on every input the result
    #: depends on (so mutating a model parameter naturally misses the cache
    #: instead of serving a stale figure).
    _effective_workers_cache: Dict[Tuple, float] = field(
        default_factory=dict, repr=False, compare=False
    )

    # ------------------------------------------------------ per assignment
    def pair_assignment_seconds(self, pair_count: int, qualified: bool = False) -> float:
        """Completion time of one pair-based assignment with ``pair_count`` pairs."""
        if pair_count < 0:
            raise ValueError("pair_count must be non-negative")
        seconds = self.pair_overhead + self.pair_seconds_per_comparison * pair_count
        if qualified:
            seconds += self.qualification_extra_seconds
        return seconds

    def cluster_assignment_seconds(self, comparisons: int, qualified: bool = False) -> float:
        """Completion time of one cluster-based assignment with the given comparisons."""
        if comparisons < 0:
            raise ValueError("comparisons must be non-negative")
        seconds = self.cluster_overhead + self.cluster_seconds_per_comparison * comparisons
        if qualified:
            seconds += self.qualification_extra_seconds
        return seconds

    # ------------------------------------------------------------- appeal
    def batch_appeal(self, hit_type: str, pairs_per_hit: Optional[int] = None) -> float:
        """Fraction of the pool attracted by a batch of the given HIT type."""
        if hit_type == "cluster":
            return self.cluster_appeal
        if hit_type == "pair":
            if pairs_per_hit is None or pairs_per_hit <= 0:
                return 1.0
            return min(1.0, self.pair_reference_batch / pairs_per_hit)
        raise ValueError("hit_type must be 'pair' or 'cluster'")

    def effective_workers(
        self, hit_type: str, pairs_per_hit: Optional[int] = None, qualification: bool = False
    ) -> float:
        """Number of workers effectively working on the batch in parallel.

        Memoized per distinct input (and per model parameterisation): the
        streaming resolver calls this on every publish with an unchanged
        configuration, so the appeal arithmetic runs once, not per batch.
        """
        key = (
            hit_type,
            pairs_per_hit,
            qualification,
            self.pool_size,
            self.cluster_appeal,
            self.pair_reference_batch,
            self.qualification_participation,
        )
        cached = self._effective_workers_cache.get(key)
        if cached is not None:
            return cached
        workers = self.pool_size * self.batch_appeal(hit_type, pairs_per_hit)
        if qualification:
            workers *= self.qualification_participation
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
            return LatencyEstimate(0.0, 0.0, 0.0, 0.0, 0)
        workers = self.effective_workers(hit_type, pairs_per_hit, qualification)
        total_work_seconds = total_seconds(assignment_seconds)
        total_minutes = self.recruitment_minutes + (total_work_seconds / workers) / 60.0
        if qualification:
            # Qualified crowds take longer to assemble.
            total_minutes += self.recruitment_minutes
        return LatencyEstimate(
            median_assignment_seconds=float(median(Counter(assignment_seconds).elements())),
            mean_assignment_seconds=total_work_seconds / count,
            total_minutes=total_minutes,
            effective_workers=workers,
            assignment_count=count,
        )


def total_seconds(assignment_seconds: Mapping[float, int]) -> float:
    """The sum of ``{seconds: count}`` durations, correctly rounded."""
    return float(sum(Fraction(seconds) * count for seconds, count in assignment_seconds.items()))
