"""The simulated crowdsourcing marketplace.

:class:`SimulatedCrowdPlatform` plays the role of AMT in the experiments: it
takes a :class:`~repro.hit.base.HITBatch`, replicates every HIT into a
number of assignments (three in the paper), assigns each to a distinct
simulated worker, collects the per-pair votes and reports cost and latency.
Because workers are simulated, the platform needs the ground-truth matches
to generate (noisy) answers — this is the "simulate the crowd from the
labels" substitution documented in DESIGN.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro import obs
from repro.crowd.latency import LatencyEstimate, LatencyModel
from repro.crowd.pricing import PricingModel
from repro.crowd.qualification import QualificationTest
from repro.crowd.worker import Worker, WorkerPool
from repro.hit.base import ClusterBasedHIT, HITBatch, PairBasedHIT
from repro.records.pairs import canonical_pair

Vote = Tuple[str, Tuple[str, str], bool]


@dataclass
class CrowdRunResult:
    """Everything a simulated crowd run produced."""

    votes: List[Vote] = field(default_factory=list)
    assignment_seconds: List[float] = field(default_factory=list)
    cost: float = 0.0
    latency: Optional[LatencyEstimate] = None
    hit_count: int = 0
    assignments_per_hit: int = 3
    qualified_worker_count: int = 0
    rejected_worker_count: int = 0

    @property
    def assignment_count(self) -> int:
        """Total number of actually completed assignments.

        Counted from the recorded per-assignment timings rather than derived
        as ``hit_count * assignments_per_hit``, which would over-report
        whenever a platform leaves assignments unfilled.
        """
        return len(self.assignment_seconds)

    def votes_by_pair(self) -> Dict[Tuple[str, str], List[bool]]:
        """Group the raw answers by pair key."""
        grouped: Dict[Tuple[str, str], List[bool]] = {}
        for _worker, pair_key, answer in self.votes:
            grouped.setdefault(pair_key, []).append(answer)
        return grouped


class SimulatedCrowdPlatform:
    """AMT stand-in: publishes HIT batches to a pool of simulated workers.

    Parameters
    ----------
    pool:
        The worker pool; defaults to a 60-worker pool with the standard
        reliability mix.
    assignments_per_hit:
        Replication factor (3 in the paper).
    qualification:
        Optional qualification test; when given, only workers that pass it
        are allowed to do assignments.
    pricing / latency:
        Cost and latency models.
    seed:
        Seed of the worker-selection RNG.
    vote_mode:
        ``"sequential"`` (the default) replays the legacy simulation: one
        RNG is advanced HIT by HIT, so the votes a pair receives depend on
        the order HITs are published and on how pairs are grouped into
        HITs.  ``"per-pair"`` makes every pair's votes a pure function of
        (platform seed, pair key, vote round): the workers asked about a
        pair and their answers are drawn from RNGs seeded by the pair key,
        so regrouping pairs into different HITs, splitting a batch into
        several ``publish`` calls, or covering a pair with multiple HITs
        never changes (or duplicates) its votes.  The streaming resolver
        relies on this mode for its incremental == batch equivalence.
    """

    VOTE_MODES = ("sequential", "per-pair")

    def __init__(
        self,
        pool: Optional[WorkerPool] = None,
        assignments_per_hit: int = 3,
        qualification: Optional[QualificationTest] = None,
        pricing: Optional[PricingModel] = None,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        vote_mode: str = "sequential",
    ) -> None:
        if assignments_per_hit < 1:
            raise ValueError("assignments_per_hit must be at least 1")
        if vote_mode not in self.VOTE_MODES:
            raise ValueError(f"vote_mode must be one of {self.VOTE_MODES}")
        self.pool = pool or WorkerPool.build(seed=seed)
        self.assignments_per_hit = assignments_per_hit
        self.qualification = qualification
        self.pricing = pricing or PricingModel()
        self.latency = latency or LatencyModel()
        self.seed = seed
        self.vote_mode = vote_mode
        self._rejected_count = 0
        # Eligibility cache keyed on the pool's membership version: churn
        # (add/remove worker) invalidates it, everything else — including
        # every publish — reuses the filtered list instead of re-running
        # the qualification test per call.
        self._eligible_version: Optional[int] = None
        self._eligible_workers: List[Worker] = []
        _ = self._eligible  # warm the cache so _rejected_count is set

    @property
    def _eligible(self) -> List[Worker]:
        if self._eligible_version != self.pool.version:
            self._eligible_workers = self._determine_eligible_workers()
            self._eligible_version = self.pool.version
        return self._eligible_workers

    def _determine_eligible_workers(self) -> List[Worker]:
        if self.qualification is None:
            return self.pool.workers
        qualified, rejected = self.qualification.filter_pool(self.pool)
        self._rejected_count = len(rejected)
        if not qualified:
            # Degenerate configuration (everyone failed); fall back to the
            # full pool so the simulation can still proceed.
            return self.pool.workers
        return qualified

    # ----------------------------------------------------------------- run
    def publish(
        self,
        batch: HITBatch,
        true_matches: Iterable[Tuple[str, str]],
        candidate_pairs: Optional[Iterable[Tuple[str, str]]] = None,
        vote_rounds: Optional[Mapping[Tuple[str, str], int]] = None,
    ) -> CrowdRunResult:
        """Run every HIT of the batch through ``assignments_per_hit`` workers.

        ``true_matches`` is the ground truth used to simulate answers.
        ``candidate_pairs`` restricts which pairs of a HIT produce votes (by
        default the batch's own candidate set is used, so only
        machine-suggested pairs are recorded — exactly the pairs the
        workflow needs verified).  ``vote_rounds`` (per-pair mode only) maps
        a pair key to its re-crowd round; asking the same pair again in a
        higher round draws fresh votes, while round 0 always reproduces the
        pair's original votes.
        """
        truth: Set[Tuple[str, str]] = {canonical_pair(a, b) for a, b in true_matches}
        candidates = (
            {canonical_pair(a, b) for a, b in candidate_pairs}
            if candidate_pairs is not None
            else set(batch.candidate_pairs)
        )
        rng = random.Random(self.seed)
        result = CrowdRunResult(
            hit_count=batch.hit_count,
            assignments_per_hit=self.assignments_per_hit,
            qualified_worker_count=len(self._eligible) if self.qualification else 0,
            rejected_worker_count=self._rejected_count,
        )

        pairs_per_hit = None
        if batch.hit_type == "pair" and batch.hits:
            pairs_per_hit = max(hit.size for hit in batch.hits)  # type: ignore[attr-defined]

        with obs.span("crowd.publish", hits=batch.hit_count, mode=self.vote_mode):
            if self.vote_mode == "per-pair":
                self._publish_per_pair(batch, truth, candidates, vote_rounds, rng, result)
            else:
                self._publish_sequential(batch, truth, candidates, rng, result)

        result.cost = self.pricing.total_cost(batch.hit_count, self.assignments_per_hit)
        result.latency = self.latency.estimate(
            result.assignment_seconds,
            hit_type=batch.hit_type,
            pairs_per_hit=pairs_per_hit,
            qualification=self.qualification is not None,
        )
        # The paper's headline cost metrics, per publish call.  HITs issued
        # here accumulate exactly like the sessions' own hit counters, so a
        # cost report's HIT count always equals the session's real total.
        if obs.enabled():
            obs.inc("hits_issued_total", batch.hit_count,
                    help="HITs published to the (simulated) crowd platform.")
            obs.inc("crowd_assignments_total", len(result.assignment_seconds),
                    help="Completed crowd assignments (replicated HITs).")
            obs.inc("crowd_votes_total", len(result.votes),
                    help="Per-pair votes collected from the crowd.")
            obs.inc("crowd_cost_dollars_total", result.cost,
                    help="Simulated crowd cost in dollars.")
            obs.inc("crowd_work_seconds_total", sum(result.assignment_seconds),
                    help="Simulated worker-seconds spent on assignments.")
            if result.latency is not None:
                obs.inc("crowd_elapsed_minutes_total", result.latency.total_minutes,
                        help="Simulated end-to-end crowd latency in minutes.")
        return result

    def _publish_sequential(
        self,
        batch: HITBatch,
        truth: Set[Tuple[str, str]],
        candidates: Set[Tuple[str, str]],
        rng: random.Random,
        result: CrowdRunResult,
    ) -> None:
        """Legacy simulation: one RNG advanced HIT by HIT in publish order."""
        for hit in batch.hits:
            workers = self._pick_workers(rng)
            for worker in workers:
                if isinstance(hit, PairBasedHIT):
                    answers = worker.do_pair_hit(hit.pairs, truth)
                    seconds = self.latency.pair_assignment_seconds(
                        hit.size, qualified=self.qualification is not None
                    )
                elif isinstance(hit, ClusterBasedHIT):
                    answers = worker.do_cluster_hit(hit.records, truth)
                    seconds = self.latency.cluster_assignment_seconds(
                        getattr(worker, "last_comparisons", hit.size * (hit.size - 1) // 2),
                        qualified=self.qualification is not None,
                    )
                    # Only report votes for the machine-suggested candidates.
                    answers = {key: value for key, value in answers.items() if key in candidates}
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unsupported HIT type: {type(hit)!r}")
                worker.completed_assignments += 1
                result.assignment_seconds.append(seconds)
                for pair_key, answer in answers.items():
                    result.votes.append((worker.worker_id, pair_key, answer))

    def _publish_per_pair(
        self,
        batch: HITBatch,
        truth: Set[Tuple[str, str]],
        candidates: Set[Tuple[str, str]],
        vote_rounds: Optional[Mapping[Tuple[str, str], int]],
        rng: random.Random,
        result: CrowdRunResult,
    ) -> None:
        """Deterministic simulation: votes are a function of the pair key.

        Assignments (cost and latency bookkeeping) are still accounted per
        HIT, but the votes are generated once per *covered candidate pair*
        in sorted pair order — a pair covered by two overlapping cluster
        HITs is asked once, and splitting the batch over several publish
        calls yields the same votes per pair.
        """
        # Per-HIT assignment bookkeeping mirrors the sequential mode.
        for hit in batch.hits:
            seconds = self.hit_assignment_seconds(hit)
            for worker in self._pick_workers(rng):
                worker.completed_assignments += 1
                result.assignment_seconds.append(seconds)
        covered = set().union(*batch.carried_pairs(candidates))
        for pair_key in sorted(covered):
            round_index = vote_rounds.get(pair_key, 0) if vote_rounds else 0
            result.votes.extend(
                self.pair_votes(pair_key, pair_key in truth, round_index=round_index)
            )

    def hit_assignment_seconds(self, hit) -> float:
        """Latency-model seconds of one per-pair-mode assignment of ``hit``.

        Cluster comparisons use the full pairwise count (the deterministic
        worst case of the Section-6 procedure).
        """
        qualified = self.qualification is not None
        if isinstance(hit, PairBasedHIT):
            return self.latency.pair_assignment_seconds(hit.size, qualified=qualified)
        if isinstance(hit, ClusterBasedHIT):
            return self.latency.cluster_assignment_seconds(
                hit.size * (hit.size - 1) // 2, qualified=qualified
            )
        raise TypeError(f"unsupported HIT type: {type(hit)!r}")

    def pair_votes(
        self, pair_key: Tuple[str, str], is_match: bool, round_index: int = 0
    ) -> List[Vote]:
        """Deterministic votes for one pair (the per-pair vote oracle).

        The ``assignments_per_hit`` workers asked about the pair are drawn
        from an RNG seeded by (platform seed, round, pair key), and each
        worker's answer from an RNG seeded by (platform seed, round, worker,
        pair key).  String seeds hash via SHA-512 inside ``random.Random``,
        so the votes are stable across processes and independent of
        ``PYTHONHASHSEED``.
        """
        key_a, key_b = pair_key
        picker = random.Random(f"{self.seed}|{round_index}|workers|{key_a}|{key_b}")
        if len(self._eligible) >= self.assignments_per_hit:
            workers = picker.sample(self._eligible, self.assignments_per_hit)
        else:
            workers = [picker.choice(self._eligible) for _ in range(self.assignments_per_hit)]
        votes: List[Vote] = []
        for worker in workers:
            answer_rng = random.Random(
                f"{self.seed}|{round_index}|{worker.worker_id}|{key_a}|{key_b}"
            )
            votes.append(
                (worker.worker_id, pair_key, worker.answer_comparison(is_match, rng=answer_rng))
            )
        return votes

    def _pick_workers(self, rng: random.Random) -> List[Worker]:
        """Pick ``assignments_per_hit`` distinct workers for one HIT."""
        if len(self._eligible) >= self.assignments_per_hit:
            return rng.sample(self._eligible, self.assignments_per_hit)
        # Fewer eligible workers than assignments: reuse workers (AMT would
        # simply leave assignments unfilled; reusing keeps the simulation
        # simple and is noted in DESIGN.md).
        return [rng.choice(self._eligible) for _ in range(self.assignments_per_hit)]
